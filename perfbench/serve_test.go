package main

import (
	"math/rand/v2"
	"strings"
	"testing"
)

// TestLoadGridDrawsEachLoadOnceThenFails draws a grid dry: every load
// comes out once, and the draw after the last one fails instead of
// repeating a load.
func TestLoadGridDrawsEachLoadOnceThenFails(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	g := newLoadGrid(0.5, 0.25, 4)
	seen := map[float64]bool{}
	for range 4 {
		x, err := g.draw(rng)
		if err != nil {
			t.Fatal(err)
		}
		if seen[x] {
			t.Fatalf("load %g drawn twice", x)
		}
		seen[x] = true
	}
	for _, want := range []float64{0.5, 0.75, 1, 1.25} {
		if !seen[want] {
			t.Errorf("load %g never drawn", want)
		}
	}
	if _, err := g.draw(rng); err == nil {
		t.Error("draw from an exhausted grid succeeded")
	}
}

// TestRequestGenFailsWhenAGridRunsOut asks for more cold advise keys than
// the grid holds: take must return an error, not spin.
func TestRequestGenFailsWhenAGridRunsOut(t *testing.T) {
	g, err := newRequestGen(1)
	if err != nil {
		t.Fatal(err)
	}
	g.advise = newLoadGrid(adviseLoadLo, adviseLoadStep, 3)
	// Two advise requests per block of 20: 40 requests need 4 keys.
	if _, err := g.take(40); err == nil || !strings.Contains(err.Error(), "exhausted") {
		t.Fatalf("take beyond the advise grid: err = %v, want exhausted", err)
	}
}

// TestRequestGenBatchesHaveTheSameMix checks that cold keys never repeat
// and that every batch holds 36 hot, 18 cold simulation and 6 advise
// requests, with one PS and one bursty simulation.
func TestRequestGenBatchesHaveTheSameMix(t *testing.T) {
	g, err := newRequestGen(7)
	if err != nil {
		t.Fatal(err)
	}
	cold := map[string]bool{}
	for b := range 20 {
		batch, err := g.take(serveBatch)
		if err != nil {
			t.Fatal(err)
		}
		kinds := map[reqKind]int{}
		ps, bursty := 0, 0
		for _, r := range batch {
			kinds[r.kind]++
			if r.kind == kindHot {
				continue
			}
			if cold[r.key] {
				t.Fatalf("batch %d: cold key %s repeated", b, r.key)
			}
			cold[r.key] = true
			if strings.Contains(r.body, `"ps":true`) {
				ps++
			}
			if strings.Contains(r.body, `"bursty":true`) {
				bursty++
			}
		}
		if kinds[kindHot] != 36 || kinds[kindCold] != 18 || kinds[kindAdvise] != 6 || ps != 1 || bursty != 1 {
			t.Fatalf("batch %d: mix %v, %d PS, %d bursty; want 36/18/6, 1, 1", b, kinds, ps, bursty)
		}
	}
}
