package server_test

import (
	"fmt"
	"testing"

	"sita/internal/policy"
	"sita/internal/server"
	"sita/internal/trace"
)

// BenchmarkRunPS times one Processor-Sharing run: the full C90 stream at
// load 0.8 under Least-Work-Left (the paper's fairness reference line),
// at 2 and 32 hosts. Stream generation happens once per host count,
// outside the timer, so ns/op and jobs/s are RunPS's cost alone.
func BenchmarkRunPS(b *testing.B) {
	const load = 0.8
	tr, err := trace.Generate(trace.C90(), 1)
	if err != nil {
		b.Fatal(err)
	}
	for _, hosts := range []int{2, 32} {
		jobs := tr.JobsAtLoad(load, hosts, true, 1)
		b.Run(fmt.Sprintf("h=%d", hosts), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res := server.RunPS(jobs, server.Config{Hosts: hosts, Policy: policy.NewLeastWorkLeft(), WarmupFraction: 0.1})
				if res.Slowdown.Count() == 0 {
					b.Fatal("no jobs completed")
				}
			}
			b.ReportMetric(float64(len(jobs))*float64(b.N)/b.Elapsed().Seconds(), "jobs/s")
		})
	}
}
