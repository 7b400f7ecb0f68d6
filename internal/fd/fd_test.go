package fd

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"indulgence/internal/chaos/clock"
	"indulgence/internal/metrics"
	"indulgence/internal/model"
	"indulgence/internal/payload"
	"indulgence/internal/trace"
)

func TestSuspectedAndLeader(t *testing.T) {
	msgs := []model.Message{
		{From: 2, Round: 3, Payload: payload.Estimate{Est: 1}},
		{From: 4, Round: 3, Payload: payload.Estimate{Est: 2}},
		{From: 1, Round: 2, Payload: payload.Estimate{Est: 3}}, // delayed, ignored
	}
	sus := Suspected(4, 3, msgs)
	if !sus.Has(1) || !sus.Has(3) || sus.Has(2) || sus.Has(4) {
		t.Fatalf("suspected = %v", sus)
	}
	if got := HeardInRound(3, msgs); got.Len() != 2 {
		t.Fatalf("heard = %v", got)
	}
	if l := Leader(3, msgs); l != 2 {
		t.Fatalf("leader = %d", l)
	}
	if l := Leader(9, msgs); l != 0 {
		t.Fatalf("leader of empty round = %d", l)
	}
}

// syntheticRun builds a trace where p3 crashes in round 2 and p1 falsely
// suspects p2 in round 1 (message delayed), with GSR 2 and 3 rounds.
func syntheticRun() *trace.Run {
	est := func(from model.ProcessID, k model.Round) model.Message {
		return model.Message{From: from, Round: k, Payload: payload.Estimate{Est: model.Value(from)}}
	}
	run := &trace.Run{
		N: 3, T: 1, Synchrony: model.ES, Algorithm: "synthetic", GSR: 2, Rounds: 3,
		Procs: []trace.ProcessTrace{
			{ID: 1, Proposal: 1},
			{ID: 2, Proposal: 2},
			{ID: 3, Proposal: 3, CrashRound: 2},
		},
	}
	// Round 1: p1 misses p2 (delayed); everyone else hears everyone.
	run.Procs[0].Steps = append(run.Procs[0].Steps, trace.Step{
		Round: 1, Sent: payload.Estimate{Est: 1}, Completes: true,
		Received: []model.Message{est(1, 1), est(3, 1)},
	})
	run.Procs[1].Steps = append(run.Procs[1].Steps, trace.Step{
		Round: 1, Sent: payload.Estimate{Est: 2}, Completes: true,
		Received: []model.Message{est(1, 1), est(2, 1), est(3, 1)},
	})
	run.Procs[2].Steps = append(run.Procs[2].Steps, trace.Step{
		Round: 1, Sent: payload.Estimate{Est: 3}, Completes: true,
		Received: []model.Message{est(1, 1), est(2, 1), est(3, 1)},
	})
	// Round 2: p3 crashes silently (sends nothing on).
	run.Procs[0].Steps = append(run.Procs[0].Steps, trace.Step{
		Round: 2, Sent: payload.Estimate{Est: 1}, Completes: true,
		Received: []model.Message{est(1, 2), est(2, 2), est(2, 1)},
	})
	run.Procs[1].Steps = append(run.Procs[1].Steps, trace.Step{
		Round: 2, Sent: payload.Estimate{Est: 2}, Completes: true,
		Received: []model.Message{est(1, 2), est(2, 2)},
	})
	run.Procs[2].Steps = append(run.Procs[2].Steps, trace.Step{
		Round: 2, Sent: payload.Estimate{Est: 3}, Completes: false,
	})
	// Round 3: synchronous among survivors.
	for i := 0; i < 2; i++ {
		run.Procs[i].Steps = append(run.Procs[i].Steps, trace.Step{
			Round: 3, Sent: payload.Estimate{Est: model.Value(i + 1)}, Completes: true,
			Received: []model.Message{est(1, 3), est(2, 3)},
		})
	}
	return run
}

func TestSimulateOutput(t *testing.T) {
	run := syntheticRun()
	out := Simulate(run)
	// Round 1: p1 suspected p2 and p3... it heard p1 and p3 only.
	if got := out.Suspects[0][0]; !got.Has(2) || got.Has(3) {
		t.Fatalf("p1 round-1 suspicions: %v", got)
	}
	// Round 2: p2 heard p1, p2 — suspects p3.
	if got := out.Suspects[1][1]; !got.Has(3) || got.Has(1) {
		t.Fatalf("p2 round-2 suspicions: %v", got)
	}
	// Crashed process has no completed round 2.
	if out.Completed[2][1] {
		t.Fatal("crashed process marked as completing")
	}
}

func TestCheckDiamondPOK(t *testing.T) {
	run := syntheticRun()
	out := Simulate(run)
	if err := CheckDiamondP(run, out); err != nil {
		t.Fatalf("dP should hold: %v", err)
	}
	if err := CheckDiamondS(run, out); err != nil {
		t.Fatalf("dS should hold: %v", err)
	}
}

func TestCheckDiamondPViolations(t *testing.T) {
	run := syntheticRun()
	out := Simulate(run)
	// Tamper: after stabilization, p1 suspects correct p2.
	out.Suspects[0][2].Add(2)
	if err := CheckDiamondP(run, out); !errors.Is(err, ErrStrongAccuracy) {
		t.Fatalf("err = %v, want accuracy violation", err)
	}
	// Tamper: p1 stops suspecting the crashed p3 after stabilization.
	out2 := Simulate(run)
	out2.Suspects[0][2].Remove(3)
	if err := CheckDiamondP(run, out2); !errors.Is(err, ErrCompleteness) {
		t.Fatalf("err = %v, want completeness violation", err)
	}
	// Tamper for dS: every correct process suspected at some point after
	// stabilization.
	out3 := Simulate(run)
	out3.Suspects[0][2].Add(2)
	out3.Suspects[1][2].Add(1)
	if err := CheckDiamondS(run, out3); !errors.Is(err, ErrWeakAccuracy) {
		t.Fatalf("err = %v, want weak-accuracy violation", err)
	}
}

// haltedSenderRun builds a trace of the shape relay-then-halt gives the
// simulated detector (n=3, GSR 3): p1 decides at round 1, relays DECIDE in
// round 2 and halts. Its relay to p2 is delayed past the run; p3 gets it,
// decides at round 2 and relays in round 3. p2 decides at round 3 on p3's
// relay, in the round it first misses the halted, correct p1.
func haltedSenderRun() *trace.Run {
	est := func(from model.ProcessID, k model.Round) model.Message {
		return model.Message{From: from, Round: k, Payload: payload.Estimate{Est: model.Value(from)}}
	}
	decide := func(from model.ProcessID, k model.Round) model.Message {
		return model.Message{From: from, Round: k, Payload: payload.Decide{V: 1}}
	}
	all1 := []model.Message{est(1, 1), est(2, 1), est(3, 1)}
	return &trace.Run{
		N: 3, T: 1, Synchrony: model.ES, Algorithm: "synthetic", GSR: 3, Rounds: 3,
		Procs: []trace.ProcessTrace{
			{ID: 1, Proposal: 1, Decided: model.Some(1), DecidedRound: 1, Steps: []trace.Step{
				{Round: 1, Sent: payload.Estimate{Est: 1}, Completes: true, Received: all1},
				{Round: 2, Sent: payload.Decide{V: 1}},
			}},
			{ID: 2, Proposal: 2, Decided: model.Some(1), DecidedRound: 3, Steps: []trace.Step{
				{Round: 1, Sent: payload.Estimate{Est: 2}, Completes: true, Received: all1},
				{Round: 2, Sent: payload.Estimate{Est: 2}, Completes: true, Received: []model.Message{est(2, 2), est(3, 2)}},
				{Round: 3, Sent: payload.Estimate{Est: 2}, Completes: true, Received: []model.Message{est(2, 3), decide(3, 3)}},
			}},
			{ID: 3, Proposal: 3, Decided: model.Some(1), DecidedRound: 2, Steps: []trace.Step{
				{Round: 1, Sent: payload.Estimate{Est: 3}, Completes: true, Received: all1},
				{Round: 2, Sent: payload.Estimate{Est: 3}, Completes: true, Received: []model.Message{decide(1, 2), est(2, 2), est(3, 2)}},
				{Round: 3, Sent: payload.Decide{V: 1}},
			}},
		},
	}
}

// TestSimulateSkipsDecisionRound pins the reading rule: a process's
// detector is read only before its decision round, so p2's round-3
// suspicion of the halted p1 is not a ◇P violation. A Simulate that also
// read the decision round would report one.
func TestSimulateSkipsDecisionRound(t *testing.T) {
	run := haltedSenderRun()
	out := Simulate(run)
	if err := CheckDiamondP(run, out); err != nil {
		t.Fatalf("dP should hold: %v", err)
	}
	if out.Completed[1][2] || out.Completed[2][1] || out.Completed[0][1] {
		t.Fatalf("readings taken in a decision or relay round: %v", out.Completed)
	}
	// The planted bug: read every completed round, decision rounds too.
	planted := Simulate(run)
	for i := range run.Procs {
		for _, st := range run.Procs[i].Steps {
			if st.Completes {
				planted.Completed[i][st.Round-1] = true
				planted.Suspects[i][st.Round-1] = Suspected(run.N, st.Round, st.Received)
			}
		}
	}
	if err := CheckDiamondP(run, planted); !errors.Is(err, ErrStrongAccuracy) {
		t.Fatalf("planted decision-round reading: err = %v, want accuracy violation", err)
	}
}

// advance moves the virtual clock d forward.
func advance(v *clock.Virtual, d time.Duration) {
	v.AfterFunc(d, func() {})
	v.Step()
}

func TestTimeoutDetector(t *testing.T) {
	const base = 10 * time.Millisecond
	v := clock.NewVirtual()
	d := NewTimeoutDetectorClock(base, v)
	if got := d.TimeoutFor(1); got != base {
		t.Fatalf("initial timeout %v", got)
	}
	// Timeouts run from the caller's round start, not from any state of
	// the detector's own.
	round := v.Now()
	advance(v, base-time.Nanosecond)
	if got := d.SuspectOverdue(3, 3, 0, round); !got.IsEmpty() {
		t.Fatalf("suspected %v before the timeout", got)
	}
	advance(v, time.Nanosecond)
	// Self (3) and the heard set (2) are never suspected.
	if got := d.SuspectOverdue(3, 3, model.NewPIDSet(2), round); got != model.NewPIDSet(1) {
		t.Fatalf("overdue: found %v, want {1}", got)
	}
	// Reads show the suspicion from the next instant on.
	if got := d.Suspected(); !got.IsEmpty() {
		t.Fatalf("suspicion visible at the instant it was raised: %v", got)
	}
	advance(v, time.Nanosecond)
	if got := d.Suspected(); got != model.NewPIDSet(1) {
		t.Fatalf("suspected = %v, want {1}", got)
	}
	// Hearing from a suspected process unsuspects it and doubles its
	// timeout (the adaptive step that yields eventual accuracy).
	d.Heard(1)
	advance(v, time.Nanosecond)
	if got := d.Suspected(); !got.IsEmpty() {
		t.Fatalf("false suspicion not cleared: %v", got)
	}
	if got := d.TimeoutFor(1); got != 2*base {
		t.Fatalf("timeout after false suspicion %v", got)
	}
	// The doubled timeout holds for every later round start.
	round = v.Now()
	advance(v, base)
	if got := d.SuspectOverdue(2, 2, 0, round); !got.IsEmpty() {
		t.Fatalf("suspected %v under the doubled timeout", got)
	}
	// Hearing from an unsuspected process changes nothing.
	d.Heard(2)
	if got := d.TimeoutFor(2); got != base {
		t.Fatalf("unsuspected timeout grew to %v", got)
	}
	// Cap at 64x base.
	for i := 0; i < 20; i++ {
		round = v.Now()
		advance(v, d.TimeoutFor(1))
		d.SuspectOverdue(2, 2, 0, round)
		advance(v, time.Nanosecond)
		d.Heard(1)
	}
	if got := d.TimeoutFor(1); got != 64*base {
		t.Fatalf("cap violated: %v", got)
	}
}

func TestTimeoutDetectorSuspectEvents(t *testing.T) {
	v := clock.NewVirtual()
	d := NewTimeoutDetectorClock(time.Millisecond, v)
	c := metrics.NewRegistry().Counter("suspicions", "test")
	d.Instrument(c)
	round := v.Now()
	advance(v, time.Millisecond)
	both := model.NewPIDSet(2, 3)
	if got := d.SuspectOverdue(3, 1, 0, round); got != both {
		t.Fatalf("first poll found %v, want %v", got, both)
	}
	// A second caller at the same instant — another instance's node —
	// is credited the same transitions, which count once.
	if got := d.SuspectOverdue(3, 1, 0, round); got != both {
		t.Fatalf("same-instant poll found %v, want %v", got, both)
	}
	// A frame heard at the instant a suspicion was raised does not lift it.
	d.Heard(2)
	advance(v, time.Nanosecond)
	if got := d.Suspected(); got != both {
		t.Fatalf("suspected = %v, want %v", got, both)
	}
	// A standing suspicion is not a new event.
	if got := d.SuspectOverdue(3, 1, 0, round); !got.IsEmpty() {
		t.Fatalf("re-poll found %v", got)
	}
	// A trusted-again process suspected anew is a new event — but not at
	// the instant it was lifted.
	d.Heard(2)
	if got := d.SuspectOverdue(3, 1, 0, round); !got.IsEmpty() {
		t.Fatalf("re-suspected %v at the instant of its lift", got)
	}
	advance(v, time.Millisecond) // past p2's doubled timeout
	if got := d.SuspectOverdue(3, 1, 0, round); got != model.NewPIDSet(2) {
		t.Fatalf("re-suspicion found %v, want {2}", got)
	}
	if got := c.Value(); got != 3 {
		t.Fatalf("instrument counted %d, want 3", got)
	}
}

// TestTimeoutDetectorInstantOrderFree applies one instant's operations —
// two nodes' polls with different round starts and heard sets, frames
// from a suspected and from a trusted peer — in every order, and demands
// the same outcome: what each poll found, the suspicions and timeouts
// from the next instant on, and the instrument's count.
func TestTimeoutDetectorInstantOrderFree(t *testing.T) {
	const base = time.Millisecond
	type outcome struct {
		foundA, foundB, suspected model.PIDSet
		timeouts                  [4]time.Duration
		events                    int64
	}
	run := func(order []int) outcome {
		v := clock.NewVirtual()
		d := NewTimeoutDetectorClock(base, v)
		c := metrics.NewRegistry().Counter("suspicions", "test")
		d.Instrument(c)
		// Before the instant: p2 suspected, p3 and p4 trusted.
		early := v.Now()
		advance(v, base)
		d.SuspectOverdue(4, 1, model.NewPIDSet(3, 4), early)
		lateA, lateB := v.Now(), early.Add(base/2)
		advance(v, base)
		var o outcome
		ops := []func(){
			func() { o.foundA = d.SuspectOverdue(4, 1, 0, lateA) },
			func() { o.foundB = d.SuspectOverdue(4, 1, model.NewPIDSet(4), lateB) },
			func() { d.Heard(2) },
			func() { d.Heard(3) },
		}
		for _, i := range order {
			ops[i]()
		}
		advance(v, time.Nanosecond)
		o.suspected = d.Suspected()
		for p := range o.timeouts {
			o.timeouts[p] = d.TimeoutFor(model.ProcessID(p + 1))
		}
		o.events = c.Value()
		return o
	}
	want := run([]int{0, 1, 2, 3})
	if want.foundA != model.NewPIDSet(3, 4) || want.foundB != model.NewPIDSet(3) || want.suspected != model.NewPIDSet(3, 4) {
		t.Fatalf("reference outcome %+v", want)
	}
	var permute func(prefix, rest []int)
	permute = func(prefix, rest []int) {
		if len(rest) == 0 {
			if got := run(prefix); got != want {
				t.Errorf("order %v: %+v, want %+v", prefix, got, want)
			}
			return
		}
		for i := range rest {
			next := append(append([]int(nil), rest[:i]...), rest[i+1:]...)
			permute(append(append([]int(nil), prefix...), rest[i]), next)
		}
	}
	permute(nil, []int{0, 1, 2, 3})
}

func TestTimeoutDetectorConcurrent(t *testing.T) {
	v := clock.NewVirtual()
	d := NewTimeoutDetectorClock(time.Millisecond, v)
	round := v.Now()
	advance(v, time.Millisecond)
	done := make(chan struct{})
	go func() {
		defer close(done)
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < 1000; i++ {
			d.SuspectOverdue(5, 1, model.NewPIDSet(model.ProcessID(rng.Intn(5)+1)), round)
		}
	}()
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 1000; i++ {
		d.Heard(model.ProcessID(rng.Intn(5) + 1))
		_ = d.Suspected()
		_ = d.TimeoutFor(3)
	}
	<-done
}
