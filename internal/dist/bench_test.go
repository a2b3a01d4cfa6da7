package dist

import "testing"

var sinkMoment float64

// BenchmarkPartialMoment times one closed-form Bounded Pareto partial
// moment through the generic entry point the moment record uses: the
// per-call cost every analytic evaluation is built from.
func BenchmarkPartialMoment(b *testing.B) {
	size, err := FitBoundedParetoMean(4500, 60, 2.2e6)
	if err != nil {
		b.Fatal(err)
	}
	var d Distribution = size
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkMoment = PartialMoment(d, 2, 60, 1e4)
	}
}
