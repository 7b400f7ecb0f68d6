package core_test

import (
	"math/rand"
	"testing"

	"indulgence/internal/baseline"
	"indulgence/internal/check"
	"indulgence/internal/core"
	"indulgence/internal/lowerbound"
	"indulgence/internal/model"
	"indulgence/internal/sched"
	"indulgence/internal/sim"
)

func props(n int) []model.Value {
	out := make([]model.Value, n)
	for i := range out {
		out[i] = model.Value(i + 1)
	}
	return out
}

func mustRun(t *testing.T, factory model.Factory, s *sched.Schedule, p []model.Value) *sim.Result {
	t.Helper()
	res, err := sim.Run(sim.Config{Synchrony: model.ES, Schedule: s, Proposals: p, Factory: factory})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if rep := check.Consensus(res, p); !rep.OK() {
		t.Fatalf("consensus: %v (schedule %v)", rep.Err(), s)
	}
	return res
}

func gdr(t *testing.T, res *sim.Result) model.Round {
	t.Helper()
	r, ok := res.GlobalDecisionRound()
	if !ok {
		t.Fatal("no decision")
	}
	return r
}

// TestFastDecisionExhaustive is Lemma 13, checked exhaustively: over every
// serial run, every deciding process decides at exactly round t+2.
func TestFastDecisionExhaustive(t *testing.T) {
	for _, tc := range []struct {
		n, t int
		mode lowerbound.SubsetMode
	}{
		{3, 1, lowerbound.AllSubsets},
		{4, 1, lowerbound.AllSubsets},
		{5, 2, lowerbound.AllSubsets},
		{6, 2, lowerbound.PrefixSubsets},
		// n=7, t=3 is covered by the benchmark harness; exhausting it
		// here would dominate the test suite's runtime.
	} {
		res, err := lowerbound.Explore(lowerbound.Config{
			N: tc.n, T: tc.t,
			Synchrony:     model.ES,
			Factory:       core.New(core.Options{}),
			Proposals:     props(tc.n),
			MaxCrashRound: model.Round(tc.t + 2),
			Mode:          tc.mode,
		})
		if err != nil {
			t.Fatalf("n=%d t=%d: %v", tc.n, tc.t, err)
		}
		want := model.Round(tc.t + 2)
		if res.WorstRound != want || res.WitnessEarliest != want {
			t.Errorf("n=%d t=%d: rounds %d..%d, want exactly %d",
				tc.n, tc.t, res.WitnessEarliest, res.WorstRound, want)
		}
		if res.PropertyViolation != nil {
			t.Errorf("n=%d t=%d: %v", tc.n, tc.t, res.PropertyViolation)
		}
		if res.Undecided {
			t.Errorf("n=%d t=%d: undecided serial run", tc.n, tc.t)
		}
	}
}

// TestSafetyUnderRandomES is the indulgence property test: validity,
// uniform agreement and termination hold over seeded random eventually
// synchronous schedules with arbitrary crash/delay patterns, and the
// elimination property (Lemma 6) holds in every run.
func TestSafetyUnderRandomES(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 150; i++ {
		n := 3 + rng.Intn(5)
		tt := 1 + rng.Intn((n-1)/2)
		gsr := model.Round(1 + rng.Intn(8))
		s := sched.RandomES(n, tt, gsr, sched.RandomOpts{Rng: rng})
		p := props(n)
		res, err := sim.Run(sim.Config{
			Synchrony: model.ES, Schedule: s, Proposals: p,
			Factory: core.New(core.Options{}),
		})
		if err != nil {
			t.Fatalf("sample %d: %v", i, err)
		}
		if rep := check.Consensus(res, p); !rep.OK() {
			t.Fatalf("sample %d (n=%d t=%d gsr=%d): %v\nschedule %v", i, n, tt, gsr, rep.Err(), s)
		}
		if err := core.CheckElimination(res.Run); err != nil {
			t.Fatalf("sample %d: %v\nschedule %v", i, err, s)
		}
	}
}

// TestSynchronousHaltClaim verifies Claim 13.1 over random synchronous
// runs: nobody who completes round t+1 appears in any Halt set.
func TestSynchronousHaltClaim(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 150; i++ {
		n := 3 + rng.Intn(5)
		tt := 1 + rng.Intn((n-1)/2)
		s := sched.RandomSynchronous(n, tt, sched.RandomOpts{Rng: rng, DelayCrashSends: true})
		res, err := sim.Run(sim.Config{
			Synchrony: model.ES, Schedule: s, Proposals: props(n),
			Factory: core.New(core.Options{}),
		})
		if err != nil {
			t.Fatalf("sample %d: %v", i, err)
		}
		if err := core.CheckSynchronousHalt(res.Run); err != nil {
			t.Fatalf("sample %d: %v\nschedule %v", i, err, s)
		}
	}
}

func TestFailureFreeFastOption(t *testing.T) {
	ff := core.New(core.Options{FailureFreeFast: true})
	// Failure-free: decide at round 2.
	res := mustRun(t, ff, sched.FailureFree(5, 2), props(5))
	if got := gdr(t, res); got != 2 {
		t.Errorf("failure-free: gdr=%d, want 2", got)
	}
	// With a crash the optimization must not fire; decision at t+2.
	s := sched.New(5, 2)
	s.CrashSilent(3, 1)
	res = mustRun(t, ff, s, props(5))
	if got := gdr(t, res); got != 4 {
		t.Errorf("crashed run: gdr=%d, want t+2=4", got)
	}
	// Fast decision safety under random synchronous runs.
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 100; i++ {
		s := sched.RandomSynchronous(5, 2, sched.RandomOpts{Rng: rng, DelayCrashSends: true})
		mustRun(t, ff, s, props(5))
	}
}

// TestDelegationToUnderlying drives A_{t+2} into its Phase-2 fallback: the
// victim's messages are delayed past Phase 1, so everyone detects false
// suspicions (or sees ⊥) and the decision comes from the underlying CT —
// later than t+2 but still uniform.
func TestDelegationToUnderlying(t *testing.T) {
	s := sched.DelayedSenderPrefix(3, 1, 3, 1)
	res := mustRun(t, core.New(core.Options{}), s, []model.Value{0, 1, 1})
	if got := gdr(t, res); got <= 3 {
		t.Errorf("gdr=%d, expected the slow path (beyond t+2=3)", got)
	}
}

func TestConstructorGuards(t *testing.T) {
	if _, err := core.New(core.Options{})(model.ProcessContext{Self: 1, N: 4, T: 2}, 1); err == nil {
		t.Fatal("t >= n/2 must be rejected")
	}
	// The underlying factory is probed at construction: AMR requires
	// t < n/3, so it must be rejected as C for n=5, t=2.
	_, err := core.New(core.Options{Underlying: baseline.NewAMR()})(model.ProcessContext{Self: 1, N: 5, T: 2}, 1)
	if err == nil {
		t.Fatal("incompatible underlying factory must surface at construction")
	}
	// And accepted where legal.
	if _, err := core.New(core.Options{Underlying: baseline.NewAMR()})(model.ProcessContext{Self: 1, N: 7, T: 2}, 1); err != nil {
		t.Fatalf("legal underlying rejected: %v", err)
	}
}

// TestDefaultUnderlyingNeedsNoProbe pins why New probes only a
// caller-supplied Underlying: on every context with n ≤ 8 and t < n (and
// every self, in range or not), A_{t+2} with the default underlying
// consensus is built exactly when baseline.NewCT is, so skipping the
// default's probe loses no construction error.
func TestDefaultUnderlyingNeedsNoProbe(t *testing.T) {
	for n := 1; n <= 8; n++ {
		for tt := 0; tt < n; tt++ {
			for self := model.ProcessID(0); int(self) <= n+1; self++ {
				ctx := model.ProcessContext{Self: self, N: n, T: tt}
				_, errCore := core.New(core.Options{})(ctx, 1)
				_, errCT := baseline.NewCT()(ctx, 1)
				if (errCore == nil) != (errCT == nil) {
					t.Errorf("%+v: core.New err %v, baseline.NewCT err %v", ctx, errCore, errCT)
				}
			}
		}
	}
}

func TestCustomUnderlying(t *testing.T) {
	// A_{t+2} with HR as C still solves consensus on the slow path.
	s := sched.DelayedSenderPrefix(3, 1, 3, 1)
	mustRun(t, core.New(core.Options{Underlying: baseline.NewHurfinRaynal()}), s, []model.Value{0, 1, 1})
}

func TestNames(t *testing.T) {
	cases := []struct {
		opts core.Options
		want string
	}{
		{core.Options{}, "A_t+2"},
		{core.Options{FailureFreeFast: true}, "A_t+2+ff"},
		{core.Options{Phase1Rounds: 1}, "A_t+2[p1=1]"},
		{core.Options{DisableHaltExchange: true}, "A_t+2[nohaltx]"},
		{core.Options{DetectorThreshold: 2}, "A_t+2[thr=2]"},
	}
	for _, tc := range cases {
		a, err := core.New(tc.opts)(model.ProcessContext{Self: 1, N: 5, T: 2}, 1)
		if err != nil {
			t.Fatalf("%q: %v", tc.want, err)
		}
		if a.Name() != tc.want {
			t.Errorf("Name() = %q, want %q", a.Name(), tc.want)
		}
	}
	ds, err := core.NewDiamondS()(model.ProcessContext{Self: 1, N: 5, T: 2}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Name() != core.DiamondSName {
		t.Errorf("diamond-S name = %q", ds.Name())
	}
}

// TestDiamondSMatchesAtPlus2 checks the Sect. 5.1 argument concretely: in
// the lockstep simulator (where receive sets are fixed by the schedule),
// A_{◇S} behaves identically to A_{t+2} — same decisions, same rounds —
// on arbitrary schedules.
func TestDiamondSMatchesAtPlus2(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for i := 0; i < 60; i++ {
		gsr := model.Round(1 + rng.Intn(5))
		s := sched.RandomES(5, 2, gsr, sched.RandomOpts{Rng: rng})
		p := props(5)
		a, err := sim.Run(sim.Config{Synchrony: model.ES, Schedule: s, Proposals: p, Factory: core.New(core.Options{})})
		if err != nil {
			t.Fatal(err)
		}
		b, err := sim.Run(sim.Config{Synchrony: model.ES, Schedule: s.Clone(), Proposals: p, Factory: core.NewDiamondS()})
		if err != nil {
			t.Fatal(err)
		}
		for j := range a.Decisions {
			if a.Decisions[j] != b.Decisions[j] {
				t.Fatalf("sample %d: p%d decisions differ: %+v vs %+v\nschedule %v",
					i, j+1, a.Decisions[j], b.Decisions[j], s)
			}
		}
	}
}

// TestDeterminism: the simulator plus algorithm is fully deterministic —
// identical schedules yield identical traces.
func TestDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s := sched.RandomES(5, 2, 4, sched.RandomOpts{Rng: rng})
	p := props(5)
	run := func() *sim.Result {
		res, err := sim.Run(sim.Config{Synchrony: model.ES, Schedule: s.Clone(), Proposals: p, Factory: core.New(core.Options{})})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	for i := range a.Decisions {
		if a.Decisions[i] != b.Decisions[i] {
			t.Fatalf("nondeterministic decisions at p%d", i+1)
		}
	}
	for p := model.ProcessID(1); int(p) <= 5; p++ {
		if a.Run.HistoryDigest(p, a.Rounds) != b.Run.HistoryDigest(p, b.Rounds) {
			t.Fatalf("nondeterministic history at p%d", p)
		}
	}
}
