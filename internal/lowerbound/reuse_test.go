package lowerbound

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"

	"indulgence/internal/baseline"
	"indulgence/internal/check"
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

// shipped lists every algorithm the repository ships, with whether it
// needs t < n/3 (the others need t < n/2).
var shipped = []struct {
	name    string
	factory model.Factory
	third   bool
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

// serialSchedules enumerates the schedules of every serial run of cfg's
// family, one by one, in the serial depth-first order the explorer
// counts them in: no crash in round r before a crash in round r, crashing
// processes by id, missing sets in missingSets order.
func serialSchedules(t *testing.T, cfg Config) []*sched.Schedule {
	t.Helper()
	if err := cfg.defaults(); err != nil {
		t.Fatal(err)
	}
	var out []*sched.Schedule
	var rec func(r model.Round, chosen []crash)
	rec = func(r model.Round, chosen []crash) {
		if len(chosen) == cfg.MaxCrashes || r > cfg.MaxCrashRound {
			s := sched.New(cfg.N, cfg.T)
			if cfg.Base != nil {
				s = cfg.Base.Clone()
			}
			for _, c := range chosen {
				receivers := model.FullPIDSet(cfg.N).Diff(c.missing)
				receivers.Remove(c.proc)
				s.CrashWithReceivers(c.proc, c.round, receivers)
			}
			out = append(out, s)
			return
		}
		rec(r+1, chosen)
		for p := model.ProcessID(1); int(p) <= cfg.N; p++ {
			crashed := cfg.Base != nil && !cfg.Base.Correct(p)
			for _, c := range chosen {
				crashed = crashed || c.proc == p
			}
			if crashed {
				continue
			}
			for _, m := range missingSets(cfg.N, p, cfg.Mode) {
				rec(r+1, append(chosen[:len(chosen):len(chosen)], crash{round: r, proc: p, missing: m}))
			}
		}
	}
	rec(cfg.FirstCrashRound, nil)
	return out
}

// reference is what Explore, Distribution and DecisionValues report over
// cfg's family, folded by simulating every serial run one by one, in
// serial order, on fresh algorithm instances.
type reference struct {
	explore *Result
	dist    map[model.Round]int
	vals    map[model.Value]struct{}
}

func referenceFold(t *testing.T, cfg Config) reference {
	t.Helper()
	resolved := cfg
	if err := resolved.defaults(); err != nil {
		t.Fatal(err)
	}
	e := &explorer{cfg: resolved}
	ref := reference{explore: &Result{}, dist: map[model.Round]int{}, vals: map[model.Value]struct{}{}}
	res := ref.explore
	var sm sim.Simulator
	for _, s := range serialSchedules(t, cfg) {
		r, err := sm.Run(e.simConfig(s))
		if err != nil {
			t.Fatal(err)
		}
		res.Runs++
		gdr, decided := r.GlobalDecisionRound()
		if !r.AllAliveDecided || !decided {
			gdr = resolved.Horizon + 1
			res.Undecided = true
		}
		ref.dist[gdr]++
		if gdr > res.WorstRound {
			res.WorstRound, res.Witness = gdr, s
			res.WitnessEarliest, _ = check.EarliestDecisionRound(r)
		}
		if rep := check.Consensus(r, cfg.Proposals); res.PropertyViolation == nil && (!rep.Validity || !rep.Agreement) {
			res.PropertyViolation, res.ViolationWitness = rep.Err(), s
		}
		for _, d := range r.Decisions {
			if d.Decided() {
				ref.vals[d.Value] = struct{}{}
			}
		}
	}
	return ref
}

// summary renders everything Explore reports but its visit and
// simulation counts, witnesses included.
func summary(r *Result) string {
	return fmt.Sprintf("worst=%d witness=%v earliest=%d runs=%d undecided=%v violation=%v violWitness=%v",
		r.WorstRound, r.Witness, r.WitnessEarliest, r.Runs, r.Undecided, r.PropertyViolation, r.ViolationWitness)
}

// matchReference checks that Explore, Distribution and DecisionValues on
// cfg report exactly what the reference fold does, and returns the number
// of runs compared.
func matchReference(t *testing.T, cfg Config) int {
	t.Helper()
	want := referenceFold(t, cfg)
	res, err := Explore(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got, w := summary(res), summary(want.explore); got != w {
		t.Errorf("Explore:\ngot  %s\nwant %s", got, w)
	}
	if res.Visits > res.Runs || res.Simulated > res.Visits {
		t.Errorf("visited %d classes and simulated %d runs of %d", res.Visits, res.Simulated, res.Runs)
	}
	dist, err := Distribution(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dist, want.dist) {
		t.Errorf("Distribution: got %v, want %v", dist, want.dist)
	}
	vals, err := DecisionValues(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(vals, want.vals) {
		t.Errorf("DecisionValues: got %v, want %v", vals, want.vals)
	}
	return want.explore.Runs
}

// TestReusedOutcomesMatchSimulation checks the weighted fold against a
// fold that simulates every serial run: Explore (witnesses and the first
// violation included), Distribution and DecisionValues must agree exactly,
// although the explorer visits one run per class of runs with one
// execution (a crash after the run ended, a loss to a receiver already
// dead) and weighs the visit by the class size.
func TestReusedOutcomesMatchSimulation(t *testing.T) {
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
	for _, a := range shipped {
		for _, sz := range sizes {
			if a.third && 3*sz.t >= sz.n || 2*sz.t >= sz.n {
				continue
			}
			t.Run(fmt.Sprintf("%s/n=%d/t=%d/mode=%d", a.name, sz.n, sz.t, sz.mode), func(t *testing.T) {
				total += matchReference(t, Config{
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
		t.Run(b.name, func(t *testing.T) { total += matchReference(t, b.cfg) })
	}
	t.Logf("%d runs matched the simulate-everything fold", total)
}

// TestAblatedViolationUnchanged checks that the explorer, weighing
// classes of runs, still reports the same first agreement violation of
// A_t+2 with a Phase 1 of t rounds as when it simulated every run: the ES
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
		matchReference(t, cfg)
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

// counted wraps an algorithm instance to count the runs it starts: every
// process sends in round 1 of a serial run, so each simulation calls
// StartRound(1) once per process, whether the instance was built or
// reset for it.
type counted struct {
	model.Algorithm
	starts *atomic.Int64
}

func (c counted) StartRound(k model.Round) model.Payload {
	if k == 1 {
		c.starts.Add(1)
	}
	return c.Algorithm.StartRound(k)
}

func (c counted) Reset(v model.Value) { c.Algorithm.(model.Resetter).Reset(v) }

// TestSimulatedRunCount pins how many runs the explorer visits and
// simulates at n = 6, t = 2 over all receiver subsets: 92,929 classes, one
// simulation each, for the 461,953 runs it counts, for every worker
// count. Round-1 starts count the simulations, since a worker builds
// each process's instance once and resets it for every later run.
func TestSimulatedRunCount(t *testing.T) {
	const n = 6
	inner := core.New(core.Options{})
	for _, workers := range []int{1, 2, 8} {
		var starts, built atomic.Int64
		res, err := Explore(Config{
			N: n, T: 2,
			Synchrony: model.ES,
			Factory: func(ctx model.ProcessContext, v model.Value) (model.Algorithm, error) {
				built.Add(1)
				a, err := inner(ctx, v)
				return counted{Algorithm: a, starts: &starts}, err
			},
			Proposals: proposals(n),
			Mode:      AllSubsets,
			Workers:   workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		simulated := starts.Load() / n
		if res.Runs != 461953 || res.Visits != 92929 || simulated != 92929 || res.Simulated != 92929 {
			t.Errorf("workers=%d: %d runs, %d visits, %d simulated (%d reported), want 461953, 92929, 92929",
				workers, res.Runs, res.Visits, simulated, res.Simulated)
		}
		// The root run is simulated on a worker of its own; each pool
		// worker then builds one instance per process.
		if limit := int64(n * (1 + workers)); built.Load() > limit {
			t.Errorf("workers=%d: %d instances built, want at most %d", workers, built.Load(), limit)
		}
	}
}

// TestResetMatchesFreshInstances runs every shipped algorithm over a
// sequence of schedules twice: on instances a worker's reuse wrapper
// resets from run to run, and on instances built fresh for every run. The
// results, traces included, must be identical, so no state of one run
// leaks into the next. The sequences are random ES schedules, which reach
// past round t+2, and every serial run of the (5, 2) family with prefix
// missing sets and crashes up to round t+2 ((5, 1) for the algorithms
// that need t < n/3).
func TestResetMatchesFreshInstances(t *testing.T) {
	for _, a := range shipped {
		t.Run(a.name, func(t *testing.T) {
			n, tt := 5, 2
			if a.third {
				tt = 1
			}
			rng := rand.New(rand.NewSource(int64(len(a.name))))
			var schedules []*sched.Schedule
			for i := 0; i < 300; i++ {
				gsr := model.Round(1 + rng.Intn(3*tt+4))
				schedules = append(schedules, sched.RandomES(n, tt, gsr, sched.RandomOpts{Rng: rng}))
			}
			schedules = append(schedules, serialSchedules(t, Config{
				N: n, T: tt, Factory: a.factory, Proposals: proposals(n),
				MaxCrashRound: model.Round(tt + 2), Mode: PrefixSubsets,
			})...)

			var built atomic.Int64
			u := &reuse{
				factory: func(ctx model.ProcessContext, v model.Value) (model.Algorithm, error) {
					built.Add(1)
					return a.factory(ctx, v)
				},
				algs: make([]model.Algorithm, n),
			}
			var fresh, reused sim.Simulator
			for i, s := range schedules {
				props := make([]model.Value, n)
				for j := range props {
					props[j] = model.Value(rng.Intn(3))
				}
				cfg := sim.Config{Synchrony: model.ES, Schedule: s, Proposals: props, Factory: a.factory, SkipValidation: true}
				want, err := fresh.Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				cfg.Factory = u.build
				got, err := reused.Run(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("run %d on %v, proposals %v: a reset instance gave\n%+v\nand fresh ones\n%+v", i, s, props, *got, *want)
				}
			}
			if built.Load() != int64(n) {
				t.Fatalf("%d instances built over %d runs, want %d: Reset unused", built.Load(), len(schedules), n)
			}
		})
	}
}
