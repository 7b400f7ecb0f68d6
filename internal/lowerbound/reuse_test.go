package lowerbound

import (
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"

	"indulgence/internal/baseline"
	"indulgence/internal/core"
	"indulgence/internal/model"
	"indulgence/internal/sched"
	"indulgence/internal/sim"
)

func proposals(n int) []model.Value {
	out := make([]model.Value, n)
	for i := range out {
		out[i] = model.Value(i + 1)
	}
	return out
}

// resimulated counts the runs a fold handed over and keeps the first one
// whose outcome differs from a fresh simulation of its schedule.
type resimulated struct {
	runs     int
	mismatch string
}

// resimulate folds every serial run of cfg with a visitor that clones the
// schedule it is handed, simulates the clone on a fresh Simulator with the
// explorer's own simulator configuration, and compares every Result field.
// It fails t on the first mismatch and returns the number of runs checked.
func resimulate(t *testing.T, cfg Config) int {
	t.Helper()
	resolved := cfg
	if err := resolved.defaults(); err != nil {
		t.Fatal(err)
	}
	e := &explorer{cfg: resolved}
	got, err := foldSerialRuns(cfg,
		func() *resimulated { return &resimulated{} },
		func(acc *resimulated, s *sched.Schedule, r *sim.Result) {
			acc.runs++
			if acc.mismatch != "" {
				return
			}
			clone := s.Clone()
			want, err := sim.NewSimulator().Run(e.simConfig(clone))
			switch {
			case err != nil:
				acc.mismatch = fmt.Sprintf("%v: %v", clone, err)
			case !reflect.DeepEqual(*want, *r):
				acc.mismatch = fmt.Sprintf("%v:\ngot  %+v\nwant %+v", clone, *r, *want)
			}
		},
		func(dst, src *resimulated) {
			dst.runs += src.runs
			if dst.mismatch == "" {
				dst.mismatch = src.mismatch
			}
		})
	if err != nil {
		t.Fatal(err)
	}
	if got.mismatch != "" {
		t.Fatalf("reused outcome differs from a fresh simulation of %s", got.mismatch)
	}
	return got.runs
}

// TestReusedOutcomesMatchSimulation checks that every run the explorer
// hands to a visitor carries the outcome a fresh simulation of its own
// schedule gives, whether the explorer simulated it or reused the outcome
// of an earlier run: a crash after the run ended, or a loss to a receiver
// already dead.
func TestReusedOutcomesMatchSimulation(t *testing.T) {
	algos := []struct {
		name    string
		factory model.Factory
		third   bool // needs t < n/3
	}{
		{"atplus2", core.New(core.Options{}), false},
		{"atplus2ff", core.New(core.Options{FailureFreeFast: true}), false},
		{"diamonds", core.NewDiamondS(), false},
		{"afplus2", core.NewAfPlus2(), true},
		{"floodset", baseline.NewFloodSet(), false},
		{"floodsetws", baseline.NewFloodSetWS(), false},
		{"ct", baseline.NewCT(), false},
		{"hurfinraynal", baseline.NewHurfinRaynal(), false},
		{"amr", baseline.NewAMR(), true},
	}
	type size struct {
		n, t int
		mode SubsetMode
	}
	var sizes []size
	for _, nt := range [][2]int{{3, 1}, {4, 1}, {5, 1}, {5, 2}} {
		for _, mode := range []SubsetMode{PrefixSubsets, AllSubsets} {
			sizes = append(sizes, size{nt[0], nt[1], mode})
		}
	}
	sizes = append(sizes, size{6, 2, PrefixSubsets})

	total := 0
	for _, a := range algos {
		for _, sz := range sizes {
			if a.third && 3*sz.t >= sz.n || 2*sz.t >= sz.n {
				continue
			}
			t.Run(fmt.Sprintf("%s/n=%d/t=%d/mode=%d", a.name, sz.n, sz.t, sz.mode), func(t *testing.T) {
				total += resimulate(t, Config{
					N: sz.n, T: sz.t,
					Synchrony: model.ES,
					Factory:   a.factory,
					Proposals: proposals(sz.n),
					Mode:      sz.mode,
					Workers:   2,
				})
			})
		}
	}

	// Extensions of base prefixes: a crash already in the base, before
	// the first explored round (its process is a dead receiver throughout)
	// or inside the explored rounds (it completes the rounds before its
	// crash), and an ES asynchronous prefix with delayed messages.
	crashed := sched.New(5, 2, sched.WithGSR(2))
	crashed.CrashWithReceivers(2, 1, model.NewPIDSet(1, 3))
	crashesLater := sched.New(5, 2)
	crashesLater.CrashWithReceivers(2, 3, model.NewPIDSet(1, 3))
	bases := []struct {
		name string
		cfg  Config
	}{
		{"base-crash", Config{
			Synchrony: model.ES, Factory: core.New(core.Options{}), Proposals: proposals(5),
			Base: crashed, FirstCrashRound: 2, MaxCrashRound: 6, Mode: AllSubsets, Workers: 1,
		}},
		{"base-crash-later", Config{
			Synchrony: model.ES, Factory: core.New(core.Options{}), Proposals: proposals(5),
			Base: crashesLater, MaxCrashRound: 5, Mode: AllSubsets, Workers: 2,
		}},
		{"base-flood-prefix", Config{
			Synchrony: model.ES, Factory: core.NewAfPlus2(), Proposals: sched.DivergenceProposalsFlood(1),
			Base: sched.DivergencePrefixFlood(1, 2), FirstCrashRound: 3, MaxCrashRound: 6, Mode: AllSubsets, Workers: 2,
		}},
	}
	for _, b := range bases {
		t.Run(b.name, func(t *testing.T) { total += resimulate(t, b.cfg) })
	}
	t.Logf("%d runs matched their fresh simulation", total)
}

// TestAblatedViolationUnchanged checks that the explorer, reusing
// outcomes, still reports the same first agreement violation of A_t+2
// with a Phase 1 of t rounds as when it simulated every run: the ES
// prefix leaves p1 unheard in round 1, and the first violating serial
// extension crashes p1 in round 2.
func TestAblatedViolationUnchanged(t *testing.T) {
	const (
		wantViolation = "check: consensus property violated: agreement: p2 decided 1 but p3 decided 0"
		wantWitness   = "sched{n=3 t=1 gsr=2 crash(p1@r2) delay(r1 p1->p2 @r2) delay(r1 p1->p3 @r2) drop(r2 p1->p2)}"
	)
	for _, mode := range []SubsetMode{PrefixSubsets, AllSubsets} {
		cfg := Config{
			Synchrony:       model.ES,
			Factory:         core.New(core.Options{Phase1Rounds: 1}),
			Proposals:       []model.Value{0, 1, 1},
			Base:            sched.DelayedSenderPrefix(3, 1, 1, 1),
			FirstCrashRound: 2,
			Mode:            mode,
		}
		resimulate(t, cfg)
		res, err := Explore(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.PropertyViolation == nil || res.ViolationWitness == nil {
			t.Fatalf("mode=%d: no violation reported", mode)
		}
		if got := res.PropertyViolation.Error(); got != wantViolation {
			t.Errorf("mode=%d: violation %q, want %q", mode, got, wantViolation)
		}
		if got := res.ViolationWitness.String(); got != wantWitness {
			t.Errorf("mode=%d: witness %s, want %s", mode, got, wantWitness)
		}
	}
}

// TestSimulatedRunCount pins how many runs the explorer simulates at
// n = 6, t = 2 over all receiver subsets: 92,929 of the 461,953 it
// visits, for every worker count. A factory call per process per
// simulation counts them.
func TestSimulatedRunCount(t *testing.T) {
	const n = 6
	inner := core.New(core.Options{})
	for _, workers := range []int{1, 2, 8} {
		var built atomic.Int64
		res, err := Explore(Config{
			N: n, T: 2,
			Synchrony: model.ES,
			Factory: func(ctx model.ProcessContext, v model.Value) (model.Algorithm, error) {
				built.Add(1)
				return inner(ctx, v)
			},
			Proposals: proposals(n),
			Mode:      AllSubsets,
			Workers:   workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		simulated := built.Load() / n
		if res.Runs != 461953 || simulated != 92929 {
			t.Errorf("workers=%d: simulated %d of %d runs, want 92929 of 461953", workers, simulated, res.Runs)
		}
		if 4*simulated > int64(res.Runs) {
			t.Errorf("workers=%d: simulated %d runs, more than a quarter of %d", workers, simulated, res.Runs)
		}
	}
}
