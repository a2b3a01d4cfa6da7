package server

import (
	"math"
	"testing"

	"sita/internal/workload"
)

// killChain is a two-host TAGS dispatcher: every job starts on host 0,
// which kills runs at cut; host 1 never kills. It records the backlog of
// both hosts at every arrival.
type killChain struct {
	cut  float64
	left [][2]float64
}

func (*killChain) Name() string { return "kill-chain" }
func (k *killChain) Assign(_ workload.Job, v View) int {
	k.left = append(k.left, [2]float64{v.WorkLeft(0), v.WorkLeft(1)})
	return 0
}
func (k *killChain) KillCutoff(i int) float64 {
	if i == 0 {
		return k.cut
	}
	return math.Inf(1)
}

func TestKillRestartsOnNextHost(t *testing.T) {
	// Host 0 kills at 10. Jobs 0-2 are all bigger, so each runs 10 s on
	// host 0 and restarts on host 1 in kill order (t = 10, 20, 30); job 3
	// fits and completes on host 0.
	p := &killChain{cut: 10}
	var recs []JobRecord
	sys := New(2, p, func(r JobRecord) { recs = append(recs, r) })
	sys.Simulate(jobs([2]float64{0, 100}, [2]float64{1, 50}, [2]float64{2, 30}, [2]float64{3, 5}))

	// Killed jobs queue behind the busy host 1 in FIFO order: job 1 waits
	// for job 0 (110), job 2 for job 1 (160).
	want := []JobRecord{
		{ID: 3, Host: 0, Arrival: 3, Size: 5, Start: 30, Departure: 35},
		{ID: 0, Host: 1, Arrival: 0, Size: 100, Start: 10, Departure: 110},
		{ID: 1, Host: 1, Arrival: 1, Size: 50, Start: 110, Departure: 160},
		{ID: 2, Host: 1, Arrival: 2, Size: 30, Start: 160, Departure: 190},
	}
	if len(recs) != len(want) {
		t.Fatalf("got %d records, want %d: %+v", len(recs), len(want), recs)
	}
	for i := range want {
		if recs[i] != want[i] {
			t.Errorf("record %d = %+v, want %+v", i, recs[i], want[i])
		}
	}

	// Host 0's backlog counts each run's budget min(size, cut), not the
	// size: at t = 1 job 0 has 9 s of its 10 s run left; each queued job
	// adds its 10 s budget. Nothing has reached host 1 yet.
	wantLeft := [][2]float64{{0, 0}, {9, 0}, {18, 0}, {27, 0}}
	if len(p.left) != len(wantLeft) {
		t.Fatalf("policy saw %d arrivals, want %d", len(p.left), len(wantLeft))
	}
	for i, w := range wantLeft {
		if p.left[i] != w {
			t.Errorf("arrival %d: WorkLeft = %v, want %v", i, p.left[i], w)
		}
	}
}

// blindKill claims obliviousness as well as kills.
type blindKill struct{}

func (blindKill) Name() string                  { return "blind-kill" }
func (blindKill) Assign(workload.Job, View) int { return 0 }
func (blindKill) Oblivious() bool               { return true }
func (blindKill) KillCutoff(i int) float64 {
	if i == 0 {
		return 10
	}
	return math.Inf(1)
}

func TestKillingPolicyStaysOnEngine(t *testing.T) {
	cfg := Config{Hosts: 2, Policy: blindKill{}}
	if !IsOblivious(cfg.Policy) {
		t.Fatal("blindKill should claim the oblivious capability")
	}
	// The direct recurrence does not model kills, so a Killing policy
	// never takes it, whatever else it claims.
	if DirectEligible(cfg) {
		t.Fatal("DirectEligible true for a Killing policy")
	}
	res := Run(jobs([2]float64{0, 100}, [2]float64{1, 5}), cfg)
	if res.PerHostJobs[0] != 1 || res.PerHostJobs[1] != 1 {
		t.Fatalf("per-host completions %v, want [1 1]", res.PerHostJobs)
	}
	if got := res.Response.Max(); got != 110 {
		t.Fatalf("killed job response = %v, want 110", got)
	}
}
