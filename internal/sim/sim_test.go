package sim

import (
	"errors"
	"reflect"
	"testing"

	"indulgence/internal/model"
	"indulgence/internal/payload"
	"indulgence/internal/sched"
)

// probe is a test algorithm that records everything it observes and
// decides its own proposal at a configurable round.
type probe struct {
	ctx      model.ProcessContext
	proposal model.Value
	decideAt model.Round
	received map[model.Round][]model.Message
	started  []model.Round
	decided  model.OptValue
}

func newProbeFactory(decideAt model.Round, store *map[model.ProcessID]*probe) model.Factory {
	return func(ctx model.ProcessContext, proposal model.Value) (model.Algorithm, error) {
		p := &probe{
			ctx:      ctx,
			proposal: proposal,
			decideAt: decideAt,
			received: make(map[model.Round][]model.Message),
		}
		if store != nil {
			(*store)[ctx.Self] = p
		}
		return p, nil
	}
}

func (p *probe) Name() string { return "probe" }

func (p *probe) StartRound(k model.Round) model.Payload {
	p.started = append(p.started, k)
	return payload.Estimate{Est: p.proposal, TS: int(k)}
}

func (p *probe) EndRound(k model.Round, delivered []model.Message) {
	msgs := make([]model.Message, len(delivered))
	copy(msgs, delivered)
	p.received[k] = msgs
	if k >= p.decideAt {
		p.decided = model.Some(p.proposal)
	}
}

func (p *probe) Decision() (model.Value, bool) { return p.decided.Get() }

func proposals(n int) []model.Value {
	out := make([]model.Value, n)
	for i := range out {
		out[i] = model.Value(10 + i)
	}
	return out
}

func TestRunConfigErrors(t *testing.T) {
	s := sched.New(3, 1)
	good := Config{
		Synchrony: model.ES,
		Schedule:  s,
		Proposals: proposals(3),
		Factory:   newProbeFactory(1, nil),
	}
	cases := []struct {
		name   string
		mutate func(Config) Config
	}{
		{"nil schedule", func(c Config) Config { c.Schedule = nil; return c }},
		{"bad proposals", func(c Config) Config { c.Proposals = proposals(2); return c }},
		{"nil factory", func(c Config) Config { c.Factory = nil; return c }},
		{"bad synchrony", func(c Config) Config { c.Synchrony = 0; return c }},
		{"too many processes, unvalidated", func(c Config) Config {
			c.Schedule, c.Proposals, c.SkipValidation = sched.New(65, 1), proposals(65), true
			return c
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Run(tc.mutate(good)); !errors.Is(err, ErrConfig) {
				t.Fatalf("err = %v, want ErrConfig", err)
			}
		})
	}
	// Schedule validation propagates.
	bad := sched.New(4, 2) // t >= n/2 without unsafe flag
	cfg := good
	cfg.Schedule = bad
	cfg.Proposals = proposals(4)
	if _, err := Run(cfg); !errors.Is(err, sched.ErrMajorityCorrect) {
		t.Fatalf("err = %v, want resilience validation error", err)
	}
}

func TestSelfDeliveryAndSorting(t *testing.T) {
	store := make(map[model.ProcessID]*probe)
	s := sched.New(3, 1)
	res, err := Run(Config{
		Synchrony: model.ES,
		Schedule:  s,
		Proposals: proposals(3),
		Factory:   newProbeFactory(1, &store),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.AllAliveDecided || res.Rounds != 1 {
		t.Fatalf("rounds=%d decided=%v", res.Rounds, res.AllAliveDecided)
	}
	for pid, p := range store {
		msgs := p.received[1]
		if len(msgs) != 3 {
			t.Fatalf("p%d received %d messages", pid, len(msgs))
		}
		for i, m := range msgs {
			if m.From != model.ProcessID(i+1) {
				t.Fatalf("p%d messages not sorted by sender: %v", pid, msgs)
			}
		}
	}
}

func TestCrashSemantics(t *testing.T) {
	store := make(map[model.ProcessID]*probe)
	s := sched.New(3, 1)
	// p1 crashes in round 2, its last message reaching only p2.
	s.CrashWithReceivers(1, 2, model.NewPIDSet(2))
	res, err := Run(Config{
		Synchrony: model.ES,
		Schedule:  s,
		Proposals: proposals(3),
		Factory:   newProbeFactory(3, &store),
	})
	if err != nil {
		t.Fatal(err)
	}
	// p1 sends in rounds 1 and 2 but never completes round 2.
	p1 := store[1]
	if len(p1.started) != 2 {
		t.Fatalf("p1 started rounds %v", p1.started)
	}
	if _, ok := p1.received[2]; ok {
		t.Fatal("crashed process completed its crash round")
	}
	if res.Decisions[0].Decided() {
		t.Fatal("crashed process decided")
	}
	if res.CrashRounds[0] != 2 {
		t.Fatalf("crash round = %d", res.CrashRounds[0])
	}
	// p2 hears p1 in round 2; p3 does not.
	heard := func(pid model.ProcessID, k model.Round, from model.ProcessID) bool {
		for _, m := range store[pid].received[k] {
			if m.From == from && m.Round == k {
				return true
			}
		}
		return false
	}
	if !heard(2, 2, 1) {
		t.Fatal("p2 should hear p1's round-2 message")
	}
	if heard(3, 2, 1) {
		t.Fatal("p3 should not hear p1's round-2 message")
	}
	// Nobody hears p1 in round 3.
	if heard(2, 3, 1) || heard(3, 3, 1) {
		t.Fatal("crashed process kept sending")
	}
}

func TestDelayedDelivery(t *testing.T) {
	store := make(map[model.ProcessID]*probe)
	s := sched.New(3, 1, sched.WithGSR(2))
	s.Delay(1, 1, 2, 3) // p1's round-1 message to p2 arrives in round 3
	res, err := Run(Config{
		Synchrony: model.ES,
		Schedule:  s,
		Proposals: proposals(3),
		Factory:   newProbeFactory(4, &store),
	})
	if err != nil {
		t.Fatal(err)
	}
	_ = res
	p2 := store[2]
	find := func(k model.Round, from model.ProcessID, sentRound model.Round) bool {
		for _, m := range p2.received[k] {
			if m.From == from && m.Round == sentRound {
				return true
			}
		}
		return false
	}
	if find(1, 1, 1) {
		t.Fatal("delayed message delivered in its send round")
	}
	if !find(3, 1, 1) {
		t.Fatal("delayed message not delivered at its scheduled round")
	}
	if !find(3, 1, 3) {
		t.Fatal("round-3 message missing")
	}
}

func TestDelayedToCrashedReceiverIsDropped(t *testing.T) {
	s := sched.New(3, 1, sched.WithGSR(2))
	s.Delay(1, 1, 2, 4)
	s.Crash(2, 2)
	if _, err := Run(Config{
		Synchrony: model.ES,
		Schedule:  s,
		Proposals: proposals(3),
		Factory:   newProbeFactory(1, nil),
	}); err != nil {
		t.Fatal(err)
	}
}

func TestSkipTrace(t *testing.T) {
	res, err := Run(Config{
		Synchrony: model.ES,
		Schedule:  sched.New(3, 1),
		Proposals: proposals(3),
		Factory:   newProbeFactory(1, nil),
		SkipTrace: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Run != nil {
		t.Fatal("trace recorded despite SkipTrace")
	}
	if !res.Decisions[0].Decided() {
		t.Fatal("decisions must be reported without a trace")
	}
}

func TestNeverDecidingHitsCap(t *testing.T) {
	res, err := Run(Config{
		Synchrony: model.ES,
		Schedule:  sched.New(3, 1),
		Proposals: proposals(3),
		Factory:   newProbeFactory(1000, nil),
		MaxRounds: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.AllAliveDecided {
		t.Fatal("should not have decided")
	}
	if res.Rounds != 7 {
		t.Fatalf("rounds = %d", res.Rounds)
	}
}

func TestTraceRecording(t *testing.T) {
	s := sched.New(3, 1)
	s.CrashSilent(3, 2)
	res, err := Run(Config{
		Synchrony: model.ES,
		Schedule:  s,
		Proposals: proposals(3),
		Factory:   newProbeFactory(2, nil),
	})
	if err != nil {
		t.Fatal(err)
	}
	run := res.Run
	if run == nil {
		t.Fatal("no trace")
	}
	if run.N != 3 || run.T != 1 || run.GSR != 1 {
		t.Fatalf("trace header: %+v", run)
	}
	p3 := run.Proc(3)
	if p3.CrashRound != 2 || p3.Correct() {
		t.Fatalf("p3 crash round %d", p3.CrashRound)
	}
	if len(p3.Steps) != 2 || p3.Steps[1].Completes {
		t.Fatalf("p3 steps: %+v", p3.Steps)
	}
	p1 := run.Proc(1)
	if p1.DecidedRound != 2 || p1.Decided.IsBottom() {
		t.Fatalf("p1 decision: %+v", p1)
	}
	if p1.Steps[0].Sent == nil {
		t.Fatal("sent payload not recorded")
	}
}

// TestMessageAccounting checks the message-complexity counters: in a
// failure-free n-process run of r rounds, n² messages are sent and
// delivered per round; losses and crashed receivers reduce deliveries
// only. The probes decide in the last round, so every round runs.
func TestMessageAccounting(t *testing.T) {
	res, err := Run(Config{
		Synchrony: model.ES,
		Schedule:  sched.New(3, 1),
		Proposals: proposals(3),
		Factory:   newProbeFactory(4, nil),
		MaxRounds: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.MessagesSent != 4*9 || res.MessagesDelivered != 4*9 {
		t.Fatalf("failure-free: sent=%d delivered=%d, want 36/36", res.MessagesSent, res.MessagesDelivered)
	}

	// p3 crashes silently in round 2: its round-2 messages to others are
	// lost (2 of them) and it stops sending/receiving afterwards.
	s := sched.New(3, 1)
	s.CrashSilent(3, 2)
	res, err = Run(Config{
		Synchrony: model.ES,
		Schedule:  s,
		Proposals: proposals(3),
		Factory:   newProbeFactory(3, nil),
		MaxRounds: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Sent: round 1: 9; round 2: 9 (p3 still sends); round 3: 6.
	if res.MessagesSent != 24 {
		t.Fatalf("sent=%d, want 24", res.MessagesSent)
	}
	// Delivered: round 1: 9; round 2: p3's 2 outbound lost, p3 receives
	// nothing (crashed): 9 − 2 − 3 = 4... p1,p2 receive 2 each (p3's
	// lost) = 4; round 3: 4 among survivors.
	if res.MessagesDelivered != 9+4+4 {
		t.Fatalf("delivered=%d, want 17", res.MessagesDelivered)
	}
}

// TestFootnote5CrashDelay checks the ES subtlety of footnote 5: even in a
// synchronous run (GSR=1), the messages a process sends in its crash round
// may be delayed arbitrarily rather than lost.
func TestFootnote5CrashDelay(t *testing.T) {
	store := make(map[model.ProcessID]*probe)
	s := sched.New(3, 1) // GSR = 1: synchronous
	s.Crash(1, 1)
	s.Delay(1, 1, 2, 3) // p1's last message to p2 arrives at round 3
	s.Drop(1, 1, 3)     // and is lost towards p3
	if err := s.Validate(model.ES); err != nil {
		t.Fatalf("footnote-5 schedule must be ES-legal: %v", err)
	}
	if err := s.Validate(model.SCS); err == nil {
		t.Fatal("the delay must be illegal in SCS")
	}
	if _, err := Run(Config{
		Synchrony: model.ES,
		Schedule:  s,
		Proposals: proposals(3),
		Factory:   newProbeFactory(4, &store),
		MaxRounds: 4,
	}); err != nil {
		t.Fatal(err)
	}
	p2 := store[2]
	found := false
	for _, m := range p2.received[3] {
		if m.From == 1 && m.Round == 1 {
			found = true
		}
	}
	if !found {
		t.Fatal("p1's crash-round message was not delivered delayed")
	}
	for _, m := range store[3].received[1] {
		if m.From == 1 {
			t.Fatal("p3 received the lost message")
		}
	}
}

// oneShot sends its proposal every round and decides it at the end of
// round decideAt. It fails the test if the simulator calls it after its
// Decision has reported.
type oneShot struct {
	t        *testing.T
	self     model.ProcessID
	proposal model.Value
	decideAt model.Round
	ended    []model.Round
	decided  model.OptValue
}

func (a *oneShot) undecided(call string, k model.Round) {
	if !a.decided.IsBottom() {
		a.t.Errorf("p%d: %s(%d) called after its decision", a.self, call, k)
	}
}

func (a *oneShot) Name() string { return "oneshot" }

func (a *oneShot) StartRound(k model.Round) model.Payload {
	a.undecided("StartRound", k)
	return payload.Estimate{Est: a.proposal}
}

func (a *oneShot) EndRound(k model.Round, _ []model.Message) {
	a.undecided("EndRound", k)
	a.ended = append(a.ended, k)
	if k >= a.decideAt {
		a.decided = model.Some(a.proposal)
	}
}

func (a *oneShot) Decision() (model.Value, bool) { return a.decided.Get() }

// TestSimulatorRelaysAndAdoptsDecide pins the DECIDE rule the simulator
// runs for every algorithm: p1 decides at round 1, is never called again,
// relays DECIDE once in round 2 and halts; p2 and p3 decide its value at
// round 2 from that DECIDE without their EndRound being called; p4, whose
// round-2 DECIDE is delayed, decides at round 3 on the late one.
func TestSimulatorRelaysAndAdoptsDecide(t *testing.T) {
	s := sched.New(4, 1, sched.WithGSR(3))
	s.Delay(2, 1, 4, 3)
	algs := make([]*oneShot, 4)
	res, err := Run(Config{
		Synchrony: model.ES,
		Schedule:  s,
		Proposals: proposals(4),
		Factory: func(ctx model.ProcessContext, v model.Value) (model.Algorithm, error) {
			a := &oneShot{t: t, self: ctx.Self, proposal: v, decideAt: 1000}
			if ctx.Self == 1 {
				a.decideAt = 1
			}
			algs[ctx.Self-1] = a
			return a, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []Decision{{10, 1}, {10, 2}, {10, 2}, {10, 3}}
	if !reflect.DeepEqual(res.Decisions, want) || res.Rounds != 3 {
		t.Fatalf("decisions %v in %d rounds, want %v in 3", res.Decisions, res.Rounds, want)
	}
	for i, ended := range [][]model.Round{{1}, {1}, {1}, {1, 2}} {
		if !reflect.DeepEqual(algs[i].ended, ended) {
			t.Errorf("p%d EndRound rounds %v, want %v", i+1, algs[i].ended, ended)
		}
	}
	p1 := res.Run.Proc(1)
	if len(p1.Steps) != 2 || p1.Steps[0].Round != 1 || p1.Steps[1].Round != 2 {
		t.Fatalf("decided p1's steps %+v: want exactly rounds 1 and 2", p1.Steps)
	}
	if st := p1.Steps[1]; st.Sent != (payload.Decide{V: 10}) || st.Completes || st.Received != nil {
		t.Errorf("p1's relay step %+v: want DECIDE(10) sent, not completed, nothing received", st)
	}
}

// quiet sends one pre-built payload every round and decides its proposal
// at the end of round decideAt. It allocates nothing.
type quiet struct {
	proposal model.Value
	decideAt model.Round
	decided  model.OptValue
}

var quietPayload model.Payload = payload.Estimate{Est: 7}

func (a *quiet) Name() string                         { return "quiet" }
func (a *quiet) StartRound(model.Round) model.Payload { return quietPayload }
func (a *quiet) EndRound(k model.Round, _ []model.Message) {
	if k >= a.decideAt {
		a.decided = model.Some(a.proposal)
	}
}
func (a *quiet) Decision() (model.Value, bool) { return a.decided.Get() }

// TestWarmRunAllocatesOnlyResult pins the simulator's own allocations: once
// a Simulator has run a schedule, running it again allocates the Result
// and its two slices and nothing else — no broadcast table, no queue of
// delayed messages, no inbox — when the algorithms allocate nothing. The
// schedule takes every delivery path: on time, lost, delayed, a crash
// heard by some receivers, and the DECIDE relay of an early decider.
func TestWarmRunAllocatesOnlyResult(t *testing.T) {
	s := sched.New(5, 2, sched.WithGSR(3))
	s.Delay(1, 1, 2, 2).Delay(2, 3, 4, 3).CrashWithReceivers(5, 2, model.NewPIDSet(1, 2))
	algs := make([]quiet, 5)
	cfg := Config{
		Synchrony: model.ES,
		Schedule:  s,
		Proposals: proposals(5),
		Factory: func(ctx model.ProcessContext, v model.Value) (model.Algorithm, error) {
			a := &algs[ctx.Self-1]
			*a = quiet{proposal: v, decideAt: 4}
			if ctx.Self == 1 {
				a.decideAt = 2
			}
			return a, nil
		},
		SkipTrace: true,
	}
	sm := NewSimulator()
	res, err := sm.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want := []Decision{{10, 2}, {10, 3}, {10, 3}, {10, 3}, {}}; !reflect.DeepEqual(res.Decisions, want) {
		t.Fatalf("decisions %v, want %v", res.Decisions, want)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := sm.Run(cfg); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 3 {
		t.Fatalf("warm Run: %v allocs, want 3 (the Result, its Decisions and CrashRounds)", allocs)
	}
}
