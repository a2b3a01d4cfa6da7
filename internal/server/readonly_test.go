package server

import (
	"sync"
	"testing"

	"sita/internal/workload"
)

// These tests pin the package's read-only input contract (see the package
// doc and //sim:readonly): internal/streamcache hands one generated job
// slice to every policy at a load point, so Run, RunPS, and the TAGS
// simulator must never write the slice they are given — neither when the
// IDs are already arrival ordinals nor when they must be renumbered
// (which happens on job values as they are fed, or on a copy).

// TestRunLeavesInputIntact runs every golden scenario's engine entry off
// one snapshot-checked slice: any mutation of any element fails.
func TestRunLeavesInputIntact(t *testing.T) {
	shared := goldenJobs(42, 3000)
	snapshot := append([]workload.Job(nil), shared...)

	Run(shared, Config{Hosts: 3, Policy: goldenLWL{}, KeepRecords: true})
	Run(shared, Config{Hosts: 3, Policy: toCentral{}, CentralOrder: CentralFCFS})
	Run(shared, Config{Hosts: 3, Policy: toCentral{}, CentralOrder: CentralSJF})
	Run(shared, Config{Hosts: 3, Policy: &alternating{}, CentralOrder: CentralSJF})
	RunPS(shared, Config{Hosts: 2, Policy: goldenLWL{}})

	for i := range shared {
		if shared[i] != snapshot[i] {
			t.Fatalf("job %d mutated: %+v, was %+v", i, shared[i], snapshot[i])
		}
	}
}

// TestRenumberPathLeavesInputIntact feeds non-ordinal IDs so Run must
// renumber, which must not rewrite the slice in place.
func TestRenumberPathLeavesInputIntact(t *testing.T) {
	shared := goldenJobs(43, 500)
	for i := range shared {
		shared[i].ID = 1000 + i // force renumbering
	}
	snapshot := append([]workload.Job(nil), shared...)

	res := Run(shared, Config{Hosts: 2, Policy: goldenLWL{}, KeepRecords: true})
	for i := range shared {
		if shared[i] != snapshot[i] {
			t.Fatalf("renumber path mutated job %d: %+v, was %+v", i, shared[i], snapshot[i])
		}
	}
	for _, rec := range res.Records {
		if rec.ID < 0 || rec.ID >= len(shared) {
			t.Fatalf("records should carry arrival ordinals in [0,%d), got ID %d", len(shared), rec.ID)
		}
	}
}

// TestSharedSliceDifferential is the contract end to end: several
// policies run concurrently off ONE shared slice, repeatedly, and every
// run's bit-exact record stream must match a solo run on a private copy.
// If any run wrote the shared slice, a sibling (or a later round) would
// replay different golden records.
func TestSharedSliceDifferential(t *testing.T) {
	shared := goldenJobs(44, 2000)

	type scenario struct {
		name string
		run  func(jobs []workload.Job) *Result
	}
	scenarios := []scenario{
		{"push-lwl", func(jobs []workload.Job) *Result {
			return Run(jobs, Config{Hosts: 3, Policy: goldenLWL{}, KeepRecords: true})
		}},
		{"central-sjf", func(jobs []workload.Job) *Result {
			return Run(jobs, Config{Hosts: 3, Policy: toCentral{}, CentralOrder: CentralSJF, KeepRecords: true})
		}},
		{"ps", func(jobs []workload.Job) *Result {
			return RunPS(jobs, Config{Hosts: 2, Policy: goldenLWL{}, KeepRecords: true})
		}},
	}

	// Golden records from solo runs on private copies.
	golden := make([]string, len(scenarios))
	for i, sc := range scenarios {
		private := append([]workload.Job(nil), shared...)
		golden[i] = formatRecords(sc.run(private).Records)
	}

	const rounds = 3
	var wg sync.WaitGroup
	got := make([][rounds]string, len(scenarios))
	for i, sc := range scenarios {
		for r := 0; r < rounds; r++ {
			wg.Add(1)
			go func(i, r int, sc scenario) {
				defer wg.Done()
				got[i][r] = formatRecords(sc.run(shared).Records)
			}(i, r, sc)
		}
	}
	wg.Wait()

	for i, sc := range scenarios {
		for r := 0; r < rounds; r++ {
			if got[i][r] != golden[i] {
				t.Errorf("%s round %d off the shared slice diverged from its solo golden records", sc.name, r)
			}
		}
	}
}
