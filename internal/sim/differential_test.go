package sim_test

import (
	"fmt"
	"math/rand"
	"testing"

	"indulgence/internal/baseline"
	"indulgence/internal/core"
	"indulgence/internal/model"
	"indulgence/internal/sched"
	"indulgence/internal/sim"
)

// cloningAlg wraps an algorithm and declares (via model.PayloadMutator)
// that it mutates received payloads, which forces the simulator onto the
// conservative clone-per-recipient delivery path. It never actually
// mutates anything, so its runs must be identical to the shared-payload
// fast path — that equivalence is exactly what the differential test pins
// down.
type cloningAlg struct{ model.Algorithm }

func (cloningAlg) MutatesReceivedPayloads() bool { return true }

func forceCloning(f model.Factory) model.Factory {
	return func(ctx model.ProcessContext, proposal model.Value) (model.Algorithm, error) {
		a, err := f(ctx, proposal)
		if err != nil {
			return nil, err
		}
		return cloningAlg{a}, nil
	}
}

// diffCorpus samples random SCS and ES schedules for one system size.
func diffCorpus(rng *rand.Rand, n, t, perKind int) []*sched.Schedule {
	var out []*sched.Schedule
	for i := 0; i < perKind; i++ {
		out = append(out, sched.RandomSynchronous(n, t, sched.RandomOpts{
			Rng:             rng,
			MaxCrashRound:   model.Round(t + 2),
			DelayCrashSends: true,
		}))
	}
	for _, gsr := range []model.Round{2, 4, 6} {
		for i := 0; i < perKind; i++ {
			out = append(out, sched.RandomES(n, t, gsr, sched.RandomOpts{
				Rng:           rng,
				MaxCrashRound: gsr + 3,
			}))
		}
	}
	return out
}

func summarize(r *sim.Result) string {
	return fmt.Sprintf("decisions=%v rounds=%d allDecided=%v sent=%d delivered=%d",
		r.Decisions, r.Rounds, r.AllAliveDecided, r.MessagesSent, r.MessagesDelivered)
}

// TestDifferentialLeanVsTracedVsCloned runs a corpus of random SCS/ES
// schedules through three simulator configurations — the lean pooled path
// (shared payloads, reused scratch), the traced path (per-recipient
// clones, fresh state) and a forced-clone lean path — and asserts that
// decisions, executed rounds and message counts are identical. It guards
// the shared-immutable payload contract: if payload sharing ever leaked
// state between recipients or runs, the paths would diverge.
func TestDifferentialLeanVsTracedVsCloned(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n5 := diffCorpus(rng, 5, 2, 12)
	n5 = append(n5, diffCorpus(rng, 7, 2, 6)...)
	n5 = append(n5, sched.FailureFree(5, 2), sched.KillCoordinators(5, 2, 2))
	// A_f+2 requires t < n/3, so it only sees the n=7, t=2 schedules.
	n7 := diffCorpus(rng, 7, 2, 12)

	cases := []struct {
		name    string
		factory model.Factory
		corpus  []*sched.Schedule
	}{
		{"atplus2", core.New(core.Options{}), n5},
		{"atplus2-ff", core.New(core.Options{FailureFreeFast: true}), n5},
		{"afplus2", core.NewAfPlus2(), n7},
		{"hurfinraynal", baseline.NewHurfinRaynal(), n5},
		{"ct", baseline.NewCT(), n5},
		{"floodset", baseline.NewFloodSet(), n5},
	}
	for _, tc := range cases {
		factory, corpus := tc.factory, tc.corpus
		t.Run(tc.name, func(t *testing.T) {
			lean := sim.NewSimulator() // reused across the whole corpus
			for i, s := range corpus {
				base := sim.Config{
					Synchrony: model.ES,
					Schedule:  s,
					Proposals: []model.Value{3, 1, 4, 1, 5, 9, 2}[:s.N()],
					Factory:   factory,
				}

				leanCfg := base
				leanCfg.SkipTrace = true
				leanRes, err := lean.Run(leanCfg)
				if err != nil {
					t.Fatalf("schedule %d lean: %v", i, err)
				}
				if leanRes.Run != nil {
					t.Fatalf("schedule %d: lean run recorded a trace", i)
				}

				tracedRes, err := sim.Run(base)
				if err != nil {
					t.Fatalf("schedule %d traced: %v", i, err)
				}
				if tracedRes.Run == nil {
					t.Fatalf("schedule %d: traced run missing its trace", i)
				}

				clonedCfg := leanCfg
				clonedCfg.Factory = forceCloning(factory)
				clonedRes, err := sim.Run(clonedCfg)
				if err != nil {
					t.Fatalf("schedule %d cloned: %v", i, err)
				}

				want := summarize(tracedRes)
				if got := summarize(leanRes); got != want {
					t.Errorf("schedule %d (%v):\nlean   %s\ntraced %s", i, s, got, want)
				}
				if got := summarize(clonedRes); got != want {
					t.Errorf("schedule %d (%v):\ncloned %s\ntraced %s", i, s, got, want)
				}
			}
		})
	}
}

// TestSimulatorReuseMatchesFreshRuns re-runs the same configuration many
// times on one Simulator and checks every repetition reproduces the first
// — scratch-state reuse must not leak state across runs.
func TestSimulatorReuseMatchesFreshRuns(t *testing.T) {
	s := sched.New(5, 2)
	s.CrashWithReceivers(2, 1, model.NewPIDSet(1, 3))
	s.Crash(4, 3)
	cfg := sim.Config{
		Synchrony: model.ES,
		Schedule:  s,
		Proposals: []model.Value{3, 1, 4, 1, 5},
		Factory:   core.New(core.Options{}),
		SkipTrace: true,
	}
	fresh, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := summarize(fresh)
	sm := sim.NewSimulator()
	for i := 0; i < 50; i++ {
		res, err := sm.Run(cfg)
		if err != nil {
			t.Fatalf("rep %d: %v", i, err)
		}
		if got := summarize(res); got != want {
			t.Fatalf("rep %d diverged:\ngot  %s\nwant %s", i, got, want)
		}
	}
}

// TestRunBatchMatchesSerial checks RunBatch against one-by-one execution
// and its determinism across worker counts.
func TestRunBatchMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	corpus := diffCorpus(rng, 5, 2, 8)
	cfgs := make([]sim.Config, len(corpus))
	for i, s := range corpus {
		cfgs[i] = sim.Config{
			Synchrony: model.ES,
			Schedule:  s,
			Proposals: []model.Value{3, 1, 4, 1, 5},
			Factory:   core.New(core.Options{}),
			SkipTrace: true,
		}
	}
	want := make([]string, len(cfgs))
	for i := range cfgs {
		res, err := sim.Run(cfgs[i])
		if err != nil {
			t.Fatal(err)
		}
		want[i] = summarize(res)
	}
	for _, workers := range []int{0, 1, 3, 16} {
		results, err := sim.RunBatch(workers, cfgs)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, res := range results {
			if got := summarize(res); got != want[i] {
				t.Errorf("workers=%d run %d:\ngot  %s\nwant %s", workers, i, got, want[i])
			}
		}
	}
}

// TestRunBatchError checks that a failing run surfaces the lowest-index
// error while the remaining results are still populated.
func TestRunBatchError(t *testing.T) {
	good := sim.Config{
		Synchrony: model.ES,
		Schedule:  sched.New(3, 1),
		Proposals: []model.Value{1, 2, 3},
		Factory:   core.New(core.Options{}),
	}
	bad := good
	bad.Schedule = nil
	results, err := sim.RunBatch(2, []sim.Config{good, bad, good})
	if err == nil {
		t.Fatal("expected an error from the nil-schedule run")
	}
	if results[0] == nil || results[2] == nil {
		t.Fatal("successful runs should still be populated")
	}
	if results[1] != nil {
		t.Fatal("failed run should have a nil result")
	}
}
