package policy

import (
	"fmt"
	"testing"

	"sita/internal/server"
	"sita/internal/trace"
)

// BenchmarkManyHosts measures per-arrival host selection as the host
// count grows: the indexed policies (O(log h) or O(1) via the View argmin
// queries) against their linear-scan references in scan_test.go (O(h)).
// The same trace is re-dispatched at every h, so the jobs/s ratio between
// <policy> and <policy>-scan at a given h is the fast path's speedup;
// BENCH_4.json records the medians.
func BenchmarkManyHosts(b *testing.B) {
	tr, err := trace.Generate(trace.C90(), 9)
	if err != nil {
		b.Fatal(err)
	}
	cases := []struct {
		name  string
		build func() server.Policy
	}{
		{"LeastWorkLeft", func() server.Policy { return NewLeastWorkLeft() }},
		{"LeastWorkLeft-scan", func() server.Policy { return NewScanLeastWorkLeft() }},
		{"ShortestQueue", func() server.Policy { return NewShortestQueue() }},
		{"ShortestQueue-scan", func() server.Policy { return NewScanShortestQueue() }},
		{"CentralQueue", func() server.Policy { return NewCentralQueue() }},
		{"CentralQueue-scan", func() server.Policy { return NewScanCentralQueue() }},
	}
	for _, h := range []int{16, 128, 1024} {
		jobs := tr.JobsAtLoad(0.7, h, true, 9)
		if len(jobs) > 20000 {
			jobs = jobs[:20000]
		}
		for _, c := range cases {
			b.Run(fmt.Sprintf("h%d/%s", h, c.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					res := server.Run(jobs, server.Config{Hosts: h, Policy: c.build()})
					if res.Slowdown.Count() == 0 {
						b.Fatal("no jobs completed")
					}
				}
				b.ReportMetric(float64(len(jobs))*float64(b.N)/b.Elapsed().Seconds(), "jobs/s")
			})
		}
	}
}
