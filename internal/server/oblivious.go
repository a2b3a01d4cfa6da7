package server

import (
	"fmt"
	"sync/atomic"
)

// Oblivious marks a Policy whose Assign decision is a pure function of the
// arriving job and the policy's own sequential state — it never consults
// the system state behind View (queue lengths, backlogs, idleness). Under
// an oblivious policy each FCFS host evolves as an independent single-
// server queue, so the whole simulation collapses to Lindley's recurrence
// (start = max(free, arrival); finish = start + size) and Run can take the
// heap-free direct path (RunDirect) instead of the discrete-event engine.
//
// The capability is a method rather than a bare marker interface because
// wrappers (Misclassify, EstimatedSITA) must forward their inner policy's
// answer at runtime: wrapping Shortest-Queue is not oblivious, wrapping
// SITA is. Implementations may read View.Hosts() — the host count is
// static configuration, not system state. The contract is enforced three
// ways: the `oblivious` analyzer in internal/analysis rejects capability
// declarations whose Assign statically reaches a View state query, the
// direct path hands policies a tripwire View whose state queries panic,
// and the differential tests replay every oblivious policy through both
// paths and diff the record streams.
type Oblivious interface {
	Policy
	// Oblivious reports whether this instance's Assign is state-blind.
	Oblivious() bool
}

// IsOblivious reports whether p declares and currently claims the
// oblivious capability.
func IsOblivious(p Policy) bool {
	o, ok := p.(Oblivious)
	return ok && o.Oblivious()
}

// directEnabled gates the automatic Run → RunDirect dispatch. On by
// default; cmd/sweep's -direct=0 and cmd/simd's -direct=false clear it so
// parity smokes can diff the two paths byte for byte. Atomic because
// sweep workers and service handlers read it concurrently; it is written
// only at process startup (or under test), and output is byte-identical
// either way.
var directEnabled atomic.Bool

func init() { directEnabled.Store(true) }

// SetDirectEnabled turns the oblivious-policy direct path on or off
// process-wide. Intended for flag wiring and tests; simulation output is
// byte-identical in both states.
func SetDirectEnabled(on bool) { directEnabled.Store(on) }

// directView is the View handed to claimed-oblivious policies on the
// direct path. Hosts answers — the host count is configuration, not
// state — and every state query panics: a policy that claims obliviousness
// and then reads system state would silently simulate garbage on the
// direct path, so the contract violation fails loudly instead.
type directView struct {
	hosts  int
	policy Policy
}

// Hosts reports the host count.
func (v *directView) Hosts() int { return v.hosts }

// violate reports a broken capability claim. Panics if called at all:
// reaching any state query through this view means the policy's Oblivious
// declaration is wrong, and simulating on would produce records that
// silently diverge from the engine.
func (v *directView) violate(method string) int {
	panic(fmt.Sprintf("server: policy %q claims Oblivious but read View.%s on the direct path", v.policy.Name(), method))
}

// NumJobs panics: oblivious policies must not read system state.
func (v *directView) NumJobs(int) int { return v.violate("NumJobs") }

// WorkLeft panics: oblivious policies must not read system state.
func (v *directView) WorkLeft(int) float64 { return float64(v.violate("WorkLeft")) }

// Idle panics: oblivious policies must not read system state.
func (v *directView) Idle(int) bool { return v.violate("Idle") != 0 }

// MinWorkHost panics: oblivious policies must not read system state.
func (v *directView) MinWorkHost() int { return v.violate("MinWorkHost") }

// MinWorkHostIn panics: oblivious policies must not read system state.
func (v *directView) MinWorkHostIn(lo, hi int) int { return v.violate("MinWorkHostIn") }

// MinJobsHost panics: oblivious policies must not read system state.
func (v *directView) MinJobsHost() int { return v.violate("MinJobsHost") }

// NextIdleHost panics: oblivious policies must not read system state.
func (v *directView) NextIdleHost() int { return v.violate("NextIdleHost") }
