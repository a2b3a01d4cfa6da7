package queueing

import (
	"fmt"
	"testing"

	"sita/internal/dist"
)

var sinkCuts []float64

// BenchmarkOptimalCutoffs times the SITA-U-opt searches at load 0.7 on the
// C90-like sizes: golden-section search at h=2, coordinate descent at h=8.
// Their allocations are a constant per search, independent of the number
// of objective evaluations.
func BenchmarkOptimalCutoffs(b *testing.B) {
	var size dist.Distribution = c90ish()
	for _, h := range []int{2, 8} {
		b.Run(fmt.Sprintf("h=%d", h), func(b *testing.B) {
			lambda := float64(h) * 0.7 / size.Moment(1)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cuts, err := OptimalCutoffs(lambda, size, h)
				if err != nil {
					b.Fatal(err)
				}
				sinkCuts = cuts
			}
		})
	}
}

// BenchmarkFairCutoffs times the h-host SITA-U-fair search (nested
// bisection on the common slowdown) at load 0.7 on the C90-like sizes.
func BenchmarkFairCutoffs(b *testing.B) {
	var size dist.Distribution = c90ish()
	b.Run("h=4", func(b *testing.B) {
		lambda := 4 * 0.7 / size.Moment(1)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			cuts, err := FairCutoffs(lambda, size, 4)
			if err != nil {
				b.Fatal(err)
			}
			sinkCuts = cuts
		}
	})
}
