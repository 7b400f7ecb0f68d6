package core_test

import (
	"math/rand"
	"testing"

	"indulgence/internal/core"
	"indulgence/internal/model"
	"indulgence/internal/payload"
	"indulgence/internal/sched"
	"indulgence/internal/sim"
)

// tracedRun executes A_{t+2} with tracing on the given schedule.
func tracedRun(t *testing.T, factory model.Factory, s *sched.Schedule, p []model.Value) *sim.Result {
	t.Helper()
	res, err := sim.Run(sim.Config{Synchrony: model.ES, Schedule: s, Proposals: p, Factory: factory})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestReplayMatchesAlgorithm cross-validates the independent Phase-1
// replay against the implementation: the estimate a process sends in
// round k+1 must equal the replayed estimate after round k, and the Halt
// set likewise.
func TestReplayMatchesAlgorithm(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 60; i++ {
		n := 3 + rng.Intn(4)
		tt := 1 + rng.Intn((n-1)/2)
		gsr := model.Round(1 + rng.Intn(4))
		s := sched.RandomES(n, tt, gsr, sched.RandomOpts{Rng: rng})
		res := tracedRun(t, core.New(core.Options{}), s, props(n))
		run := res.Run
		for p := model.ProcessID(1); int(p) <= n; p++ {
			snaps := core.ReplayPhase1(run, p)
			pt := run.Proc(p)
			for k := 0; k < len(snaps); k++ {
				next := k + 1 // round k+2 in 1-based terms sends est after round k+1
				if next >= len(pt.Steps) {
					continue
				}
				eh, ok := pt.Steps[next].Sent.(payload.EstHalt)
				if !ok {
					continue
				}
				if !snaps[k].Completed {
					t.Fatalf("p%d sent in round %d without completing round %d", p, next+1, k+1)
				}
				if eh.Est != snaps[k].Est || eh.Halt != snaps[k].Halt {
					t.Fatalf("replay mismatch at p%d after round %d: sent (est=%d halt=%v), replayed (est=%d halt=%v)\nschedule %v",
						p, k+1, eh.Est, eh.Halt, snaps[k].Est, snaps[k].Halt, s)
				}
			}
		}
	}
}

// TestCSetsMonotone is Observation O2 of the elimination proof: the C_k
// sets only grow with k, and contain every minimum-value proposer from
// the start.
func TestCSetsMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 60; i++ {
		n := 3 + rng.Intn(4)
		tt := 1 + rng.Intn((n-1)/2)
		s := sched.RandomES(n, tt, model.Round(1+rng.Intn(4)), sched.RandomOpts{Rng: rng})
		p := props(n)
		res := tracedRun(t, core.New(core.Options{}), s, p)
		for _, c := range []model.Value{1, 2, model.Value(n)} {
			sets := core.CSets(res.Run, c)
			if sets[0].IsEmpty() {
				t.Fatalf("C_0 empty for c=%d with proposals %v", c, p)
			}
			for k := 1; k < len(sets); k++ {
				if !sets[k-1].Diff(sets[k]).IsEmpty() {
					t.Fatalf("C_%d ⊄ C_%d: %v vs %v\nschedule %v", k-1, k, sets[k-1], sets[k], s)
				}
			}
		}
	}
}

// TestEliminationDetectsViolation feeds the checker the Halt-exchange
// ablation witness run, in which two distinct non-⊥ new estimates are
// broadcast — the checker must flag it.
func TestEliminationDetectsViolation(t *testing.T) {
	s := sched.DelayedSenderPrefix(3, 1, 3, 1)
	res := tracedRun(t, core.New(core.Options{DisableHaltExchange: true}), s, []model.Value{0, 1, 1})
	if err := core.CheckElimination(res.Run); err == nil {
		t.Fatal("elimination checker missed the ablated violation")
	}
	// The faithful algorithm passes on the same adversary.
	res = tracedRun(t, core.New(core.Options{}), s.Clone(), []model.Value{0, 1, 1})
	if err := core.CheckElimination(res.Run); err != nil {
		t.Fatalf("faithful run flagged: %v", err)
	}
}

func TestSynchronousHaltRequiresSynchronousRun(t *testing.T) {
	s := sched.DelayedSenderPrefix(3, 1, 2, 1)
	res := tracedRun(t, core.New(core.Options{}), s, []model.Value{0, 1, 1})
	if err := core.CheckSynchronousHalt(res.Run); err == nil {
		t.Fatal("checker must refuse non-synchronous runs")
	}
}

func TestSentNewEstimates(t *testing.T) {
	s := sched.New(3, 1)
	s.CrashSilent(2, 1)
	res := tracedRun(t, core.New(core.Options{}), s, []model.Value{5, 1, 7})
	nes := core.SentNewEstimates(res.Run)
	// p2 crashed in round 1 and never reached round t+2 = 3.
	if _, ok := nes[2]; ok {
		t.Fatal("crashed process reported a new estimate")
	}
	// p1 and p3 survived with |Halt| = 1 ≤ t: non-⊥ estimates.
	for _, p := range []model.ProcessID{1, 3} {
		ne, ok := nes[p]
		if !ok {
			t.Fatalf("p%d missing", p)
		}
		if v, some := ne.Get(); !some || v != 5 {
			t.Fatalf("p%d nE = %v, want Some(5)", p, ne)
		}
	}
}
