package tags

import (
	"testing"

	"sita/internal/trace"
)

// BenchmarkSimulate times one TAGS run on its own: the full C90 stream at
// 2 hosts and load 0.5 through Simulate at the optimal kill cutoff. The
// cutoff search and stream generation happen once, outside the timer, so
// ns/op and jobs/s are the simulator's cost alone.
func BenchmarkSimulate(b *testing.B) {
	const hosts, load = 2, 0.5
	p := trace.C90()
	tr, err := trace.Generate(p, 1)
	if err != nil {
		b.Fatal(err)
	}
	size := p.MustSizeDist()
	cuts, err := OptimalCutoffs(float64(hosts)*load/size.Moment(1), size, hosts)
	if err != nil {
		b.Fatal(err)
	}
	jobs := tr.JobsAtLoad(load, hosts, true, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := Simulate(jobs, cuts, 0.1); res.Slowdown.Count() == 0 {
			b.Fatal("no jobs completed")
		}
	}
	b.ReportMetric(float64(len(jobs))*float64(b.N)/b.Elapsed().Seconds(), "jobs/s")
}
