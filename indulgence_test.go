package indulgence_test

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"indulgence"
)

// TestPublicAPIQuickstart walks the README quick-start flow through the
// public façade only.
func TestPublicAPIQuickstart(t *testing.T) {
	proposals := []indulgence.Value{3, 1, 4, 1, 5}
	res, err := indulgence.Simulate(indulgence.SimConfig{
		Synchrony: indulgence.ES,
		Schedule:  indulgence.FailureFree(5, 2),
		Proposals: proposals,
		Factory:   indulgence.NewAtPlus2(indulgence.AtPlus2Options{}),
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := indulgence.CheckConsensus(res, proposals)
	if !rep.OK() {
		t.Fatalf("consensus: %v", rep.Err())
	}
	gdr, ok := res.GlobalDecisionRound()
	if !ok || gdr != 4 {
		t.Fatalf("global decision round = %d, want t+2 = 4", gdr)
	}
	for _, d := range res.Decisions {
		if d.Value != 1 {
			t.Fatalf("decided %d, want the minimum 1", d.Value)
		}
	}
}

// TestPublicAPISchedules builds a custom adversary through the façade.
func TestPublicAPISchedules(t *testing.T) {
	s := indulgence.NewSchedule(5, 2, indulgence.WithGSR(3))
	s.CrashWithReceivers(2, 1, indulgence.PIDSetOf(3))
	s.Delay(1, 1, 4, 3)
	proposals := []indulgence.Value{9, 1, 8, 7, 6}
	res, err := indulgence.Simulate(indulgence.SimConfig{
		Synchrony: indulgence.ES,
		Schedule:  s,
		Proposals: proposals,
		Factory:   indulgence.NewAtPlus2(indulgence.AtPlus2Options{}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep := indulgence.CheckConsensus(res, proposals); !rep.OK() {
		t.Fatalf("consensus: %v", rep.Err())
	}
}

// TestPublicAPIExplore reproduces the t+2 worst case via the façade.
func TestPublicAPIExplore(t *testing.T) {
	res, err := indulgence.Explore(indulgence.ExploreConfig{
		N: 3, T: 1,
		Synchrony:     indulgence.ES,
		Factory:       indulgence.NewAtPlus2(indulgence.AtPlus2Options{}),
		Proposals:     []indulgence.Value{1, 2, 3},
		MaxCrashRound: 3,
		Mode:          indulgence.AllSubsets,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.WorstRound != 3 {
		t.Fatalf("worst = %d, want 3", res.WorstRound)
	}
}

// TestPublicAPIClaim51 exercises the Fig. 1 construction via the façade.
func TestPublicAPIClaim51(t *testing.T) {
	factory := indulgence.NewAtPlus2(indulgence.AtPlus2Options{})
	c51, err := indulgence.BuildClaim51(factory, 3, 1, []indulgence.Value{0, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := c51.Verify(factory)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("claim 5.1 checks failed: %v", rep.Details)
	}
}

// TestPublicAPIValency exercises the valency classifier via the façade.
func TestPublicAPIValency(t *testing.T) {
	v, err := indulgence.ClassifyInitial(indulgence.ExploreConfig{
		N: 3, T: 1,
		Synchrony:     indulgence.ES,
		Factory:       indulgence.NewAtPlus2(indulgence.AtPlus2Options{}),
		Proposals:     []indulgence.Value{0, 0, 0},
		MaxCrashRound: 3,
		Mode:          indulgence.AllSubsets,
	})
	if err != nil {
		t.Fatal(err)
	}
	if v != indulgence.Valency(1) { // ZeroValent
		t.Fatalf("valency = %v", v)
	}
}

// TestPublicAPILiveCluster runs the in-memory live flow via the façade.
func TestPublicAPILiveCluster(t *testing.T) {
	const n = 4
	hub, err := indulgence.NewHub(n)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = hub.Close() }()
	eps := make([]indulgence.Transport, n)
	for i := 0; i < n; i++ {
		if eps[i], err = hub.Endpoint(indulgence.ProcessID(i + 1)); err != nil {
			t.Fatal(err)
		}
	}
	cl, err := indulgence.NewCluster(indulgence.ClusterConfig{
		N: n, T: 1,
		Factory:     indulgence.NewAfPlus2(),
		Proposals:   []indulgence.Value{4, 3, 2, 1},
		Endpoints:   eps,
		BaseTimeout: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	results, err := cl.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var first indulgence.Value
	for i, r := range results {
		v, ok := r.Decision.Get()
		if !ok {
			t.Fatalf("p%d undecided", r.ID)
		}
		if i == 0 {
			first = v
		} else if v != first {
			t.Fatalf("agreement violated: %d vs %d", first, v)
		}
	}
}

// TestPublicAPIOptValue covers the ⊥ helpers.
func TestPublicAPIOptValue(t *testing.T) {
	if !indulgence.Bottom().IsBottom() {
		t.Fatal("Bottom not bottom")
	}
	if v, ok := indulgence.Some(7).Get(); !ok || v != 7 {
		t.Fatal("Some broken")
	}
}

// TestPublicAPIGenerators touches every schedule generator and algorithm
// constructor exposed by the façade.
func TestPublicAPIGenerators(t *testing.T) {
	if s := indulgence.KillCoordinators(5, 2, 2); s.Crashes() != 2 {
		t.Fatal("KillCoordinators")
	}
	if s := indulgence.SplitBrain(4, 6); s.T() != 2 {
		t.Fatal("SplitBrain")
	}
	if s := indulgence.DelayedSenderPrefix(4, 1, 3, 1); s.GSR() != 4 {
		t.Fatal("DelayedSenderPrefix")
	}
	if s := indulgence.DivergencePrefixFlood(1, 3); s.GSR() != 4 {
		t.Fatal("DivergencePrefixFlood")
	}
	if s := indulgence.DivergencePrefixLeader(1, 3); s.GSR() != 4 {
		t.Fatal("DivergencePrefixLeader")
	}
	if len(indulgence.DivergenceProposalsFlood(2)) != 7 || len(indulgence.DivergenceProposalsLeader(2)) != 7 {
		t.Fatal("divergence proposals")
	}
	rng := rand.New(rand.NewSource(3))
	if s := indulgence.RandomSynchronous(5, 2, indulgence.RandomOpts{Rng: rng}); s.GSR() != 1 {
		t.Fatal("RandomSynchronous")
	}
	if s := indulgence.RandomES(5, 2, 4, indulgence.RandomOpts{Rng: rng}); s.GSR() != 4 {
		t.Fatal("RandomES")
	}

	ctx := indulgence.ProcessContext{Self: 1, N: 7, T: 2}
	for _, f := range []indulgence.Factory{
		indulgence.NewAtPlus2(indulgence.AtPlus2Options{}),
		indulgence.NewDiamondS(),
		indulgence.NewAfPlus2(),
		indulgence.NewAfPlus2Opts(indulgence.AfPlus2Options{}),
		indulgence.NewFloodSet(),
		indulgence.NewFloodSetWS(),
		indulgence.NewCT(),
		indulgence.NewHurfinRaynal(),
		indulgence.NewAMR(),
	} {
		a, err := f(ctx, 1)
		if err != nil {
			t.Fatalf("constructor: %v", err)
		}
		if a.Name() == "" {
			t.Fatal("empty algorithm name")
		}
	}
}

// TestDecidersCrashAfterFastDecision stresses uniform agreement across the
// fast/slow path boundary: the victim of an asynchronous prefix misses the
// fast decision (its |Halt| > t certificate forces ⊥), and the two fast
// deciders it could have heard DECIDE from crash right away — the
// remaining deciders' one DECIDE relay each must still reach it.
func TestDecidersCrashAfterFastDecision(t *testing.T) {
	s := indulgence.DelayedSenderPrefix(5, 2, 4, 1) // t+2 = 4, GSR = 5
	s.CrashSilent(2, 5)
	s.CrashSilent(3, 6)
	proposals := []indulgence.Value{0, 1, 1, 1, 1}
	res, err := indulgence.Simulate(indulgence.SimConfig{
		Synchrony: indulgence.ES,
		Schedule:  s,
		Proposals: proposals,
		Factory:   indulgence.NewAtPlus2(indulgence.AtPlus2Options{}),
	})
	if err != nil {
		t.Fatal(err)
	}
	rep := indulgence.CheckConsensus(res, proposals)
	if !rep.OK() {
		t.Fatalf("consensus: %v", rep.Err())
	}
	// The survivors decided 1 (they never saw p1's 0); so must p1.
	if res.Decisions[0].Value != 1 || !res.Decisions[0].Decided() {
		t.Fatalf("p1 decision: %+v", res.Decisions[0])
	}
	if res.Decisions[0].Round <= 4 {
		t.Fatalf("p1 decided at %d: it cannot have taken the fast path", res.Decisions[0].Round)
	}
}
