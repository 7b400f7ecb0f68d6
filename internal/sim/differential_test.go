package sim_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"indulgence/internal/baseline"
	"indulgence/internal/core"
	"indulgence/internal/model"
	"indulgence/internal/sched"
	"indulgence/internal/sim"
)

// payloadContract checks the contract of model.Payload over a run: no
// payload is mutated once StartRound has returned it. Its factory wraps
// every algorithm of the run; each wrapper digests the payload its
// algorithm returns from StartRound and every message its EndRound is
// handed, and compares the delivered messages with their digests when
// EndRound returns. check compares every payload seen with its digest at
// the end of the run, which catches a sender that changes what it sent.
type payloadContract struct {
	t    *testing.T
	held []heldMessage
}

type heldMessage struct {
	where  string
	m      model.Message
	digest []byte
}

// contractAlg is one process's algorithm under the contract check.
type contractAlg struct {
	model.Algorithm
	c    *payloadContract
	self model.ProcessID
}

func (c *payloadContract) factory(f model.Factory) model.Factory {
	return func(ctx model.ProcessContext, proposal model.Value) (model.Algorithm, error) {
		a, err := f(ctx, proposal)
		if err != nil {
			return nil, err
		}
		return &contractAlg{Algorithm: a, c: c, self: ctx.Self}, nil
	}
}

func (c *payloadContract) hold(where string, m model.Message) {
	c.held = append(c.held, heldMessage{where, m, m.AppendDigest(nil)})
}

// verify compares the messages held since index from with their digests.
func (c *payloadContract) verify(from int, when string) {
	c.t.Helper()
	for _, h := range c.held[from:] {
		if !bytes.Equal(h.m.AppendDigest(nil), h.digest) {
			c.t.Fatalf("%s: the payload of p%d's round-%d message %s changed", when, h.m.From, h.m.Round, h.where)
		}
	}
}

// check verifies every payload of the run and forgets them.
func (c *payloadContract) check() {
	c.t.Helper()
	c.verify(0, "at run end")
	c.held = c.held[:0]
}

func (a *contractAlg) StartRound(k model.Round) model.Payload {
	pl := a.Algorithm.StartRound(k)
	a.c.hold("as sent", model.Message{From: a.self, Round: k, Payload: pl})
	return pl
}

func (a *contractAlg) EndRound(k model.Round, delivered []model.Message) {
	from := len(a.c.held)
	where := fmt.Sprintf("as p%d received it in round %d", a.self, k)
	for _, m := range delivered {
		a.c.hold(where, m)
	}
	a.Algorithm.EndRound(k, delivered)
	a.c.verify(from, fmt.Sprintf("after p%d's EndRound(%d)", a.self, k))
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
// (reused scratch, no trace), the traced path (fresh state, every payload
// recorded) and the lean path with every algorithm under payloadContract —
// and asserts that decisions, executed rounds and message counts are
// identical. The third column is the direct test of the shared-immutable
// payload contract: every receiver reads the one payload its sender
// built, and no algorithm in the repository may change it.
func TestDifferentialLeanVsTracedVsCloned(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n5 := diffCorpus(rng, 5, 2, 12)
	n5 = append(n5, diffCorpus(rng, 7, 2, 6)...)
	n5 = append(n5, sched.FailureFree(5, 2), sched.KillCoordinators(5, 2, 2))
	// A_f+2 and AMR require t < n/3, so they only see the n=7, t=2 schedules.
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
		{"floodsetws", baseline.NewFloodSetWS(), n5},
		{"diamonds", core.NewDiamondS(), n5},
		{"amr", baseline.NewAMR(), n7},
	}
	for _, tc := range cases {
		factory, corpus := tc.factory, tc.corpus
		t.Run(tc.name, func(t *testing.T) {
			lean := sim.NewSimulator() // reused across the whole corpus
			contract := &payloadContract{t: t}
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

				checkedCfg := leanCfg
				checkedCfg.Factory = contract.factory(factory)
				checkedRes, err := lean.Run(checkedCfg)
				if err != nil {
					t.Fatalf("schedule %d checked: %v", i, err)
				}
				contract.check()

				want := summarize(tracedRes)
				if got := summarize(leanRes); got != want {
					t.Errorf("schedule %d (%v):\nlean   %s\ntraced %s", i, s, got, want)
				}
				if got := summarize(checkedRes); got != want {
					t.Errorf("schedule %d (%v):\nchecked %s\ntraced  %s", i, s, got, want)
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
