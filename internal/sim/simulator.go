package sim

import (
	"fmt"
	"slices"

	"indulgence/internal/model"
	"indulgence/internal/payload"
	"indulgence/internal/sched"
	"indulgence/internal/trace"
)

// Simulator executes runs while reusing its scratch state — the round's
// broadcast table, the queues of delayed messages, the per-process
// inboxes and the algorithm table — so that repeated simulations (the
// exhaustive explorer, the random sweeps) stop paying the per-run setup
// cost. A Simulator is not safe for concurrent use; spawn one per
// goroutine (RunBatch and the lower-bound explorer do exactly that).
//
// A round's messages are not queued one by one. The broadcast table holds
// each sender's round-k message once, with the receivers it does not
// reach in round k; the receive phase hands each completing receiver the
// message of every sender that reaches it. Only a Delayed message is
// queued, for the round that delivers it.
//
// The Result returned by Run is freshly allocated and remains valid after
// subsequent runs. A recorded trace holds the payloads the run delivered:
// payloads are never mutated (model.Payload).
type Simulator struct {
	algs    []model.Algorithm
	sent    []broadcast     // sent[i]: process i+1's message of the round
	pending [][]delivery    // pending[r]: delayed messages due in round r
	queued  model.Round     // the last round pending holds messages for
	inbox   []payload.Inbox // inbox[i]: process i+1's receive sets
}

// broadcast is one sender's message of the current round.
type broadcast struct {
	sends bool // the sender broadcasts this round
	msg   model.Message
	// late holds the receivers that do not get msg this round: its fate
	// is Lost or Delayed.
	late model.PIDSet
}

// NewSimulator returns a Simulator with empty scratch state. The zero
// value is also usable.
func NewSimulator() *Simulator { return &Simulator{} }

// Run executes one run and returns its outcome, like the package-level Run
// but reusing the Simulator's scratch state. The error is non-nil only for
// configuration problems.
func (sm *Simulator) Run(cfg Config) (*Result, error) {
	s := cfg.Schedule
	if s == nil {
		return nil, fmt.Errorf("%w: nil schedule", ErrConfig)
	}
	n := s.N()
	if n > model.MaxProcesses {
		// Receiver sets are PIDSets, even when validation is skipped.
		return nil, fmt.Errorf("%w: n=%d exceeds %d processes", ErrConfig, n, model.MaxProcesses)
	}
	if len(cfg.Proposals) != n {
		return nil, fmt.Errorf("%w: %d proposals for n=%d", ErrConfig, len(cfg.Proposals), n)
	}
	if cfg.Factory == nil {
		return nil, fmt.Errorf("%w: nil factory", ErrConfig)
	}
	if cfg.Synchrony != model.SCS && cfg.Synchrony != model.ES {
		return nil, fmt.Errorf("%w: unknown synchrony %v", ErrConfig, cfg.Synchrony)
	}
	if !cfg.SkipValidation {
		if err := s.Validate(cfg.Synchrony); err != nil {
			return nil, err
		}
	}
	maxRounds := cfg.MaxRounds
	if maxRounds == 0 {
		maxRounds = s.MaxScheduledRound() + model.Round(3*n+8*(s.T()+2)+12)
	}

	algs := sm.algs[:0]
	for i := 0; i < n; i++ {
		ctx := model.ProcessContext{Self: model.ProcessID(i + 1), N: n, T: s.T()}
		a, err := cfg.Factory(ctx, cfg.Proposals[i])
		if err != nil {
			return nil, fmt.Errorf("sim: build algorithm for p%d: %w", i+1, err)
		}
		algs = append(algs, a)
	}
	sm.algs = algs

	res := &Result{
		Decisions:   make([]Decision, n),
		CrashRounds: make([]model.Round, n),
	}
	for i := 0; i < n; i++ {
		if r, ok := s.CrashRound(model.ProcessID(i + 1)); ok {
			res.CrashRounds[i] = r
		}
	}

	var run *trace.Run
	if !cfg.SkipTrace {
		run = &trace.Run{
			N:         n,
			T:         s.T(),
			Synchrony: cfg.Synchrony,
			Algorithm: algs[0].Name(),
			GSR:       s.GSR(),
			Procs:     make([]trace.ProcessTrace, n),
		}
		for i := 0; i < n; i++ {
			run.Procs[i] = trace.ProcessTrace{
				ID:         model.ProcessID(i + 1),
				Proposal:   cfg.Proposals[i],
				CrashRound: res.CrashRounds[i],
			}
		}
		res.Run = run
	}

	// pending is indexed by delivery round; entries keep their backing
	// arrays across runs, and only the rounds an earlier run queued
	// messages for need emptying. Delayed messages due past maxRounds can
	// never be received and are dropped at enqueue time.
	pending := sm.pending[:cap(sm.pending)]
	for r := model.Round(1); r <= sm.queued; r++ {
		pending[r] = pending[r][:0]
	}
	sm.queued = 0
	if int(maxRounds) >= len(pending) {
		pending = append(pending, make([][]delivery, int(maxRounds)+1-len(pending))...)
	}
	pending = pending[:int(maxRounds)+1]
	sm.pending = pending

	inbox := sm.inbox
	if n > cap(inbox) {
		inbox = append(inbox[:cap(inbox)], make([]payload.Inbox, n-cap(inbox))...)
	}
	inbox = inbox[:n]
	sm.inbox = inbox
	if n > cap(sm.sent) {
		sm.sent = make([]broadcast, n)
	}
	sent := sm.sent[:n]

	executed := model.Round(0)

	for k := model.Round(1); k <= maxRounds; k++ {
		executed = k
		// Send phase: every process that has neither crashed in an
		// earlier round nor halted broadcasts, including to itself
		// (self-delivery is always in-round); one that decided in round
		// k-1 is not called again and relays DECIDE.
		var receivers model.PIDSet // undecided processes that complete round k
		for i := 0; i < n; i++ {
			p := model.ProcessID(i + 1)
			d := res.Decisions[i]
			if !d.Decided() && s.CompletesRound(p, k) {
				receivers.Add(p)
			}
			b := &sent[i]
			b.sends = s.SendsIn(p, k) && (!d.Decided() || d.Round == k-1)
			if !b.sends {
				continue
			}
			var pl model.Payload
			if d.Decided() {
				pl = payload.Decide{V: d.Value}
			} else {
				pl = algs[i].StartRound(k)
			}
			if run != nil {
				run.Procs[i].Steps = append(run.Procs[i].Steps, trace.Step{Round: k, Sent: pl})
			}
			b.msg = model.Message{From: p, Round: k, Payload: pl}
			b.late = 0
			res.MessagesSent += n
			// A sender with no scheduled fate this round reaches every
			// receiver on time: no per-receiver fate lookup.
			if !s.ScheduledFrom(k, p) {
				continue
			}
			for j := 0; j < n; j++ {
				q := model.ProcessID(j + 1)
				switch fate := s.FateOf(k, p, q); fate.Kind {
				case sched.OnTime:
				case sched.Lost:
					b.late.Add(q)
				case sched.Delayed:
					b.late.Add(q)
					at := fate.DeliverRound
					if at > maxRounds {
						continue
					}
					if pending[at] == nil {
						pending[at] = make([]delivery, 0, n)
					}
					pending[at] = append(pending[at], delivery{to: q, msg: b.msg})
					sm.queued = max(sm.queued, at)
				default:
					return nil, fmt.Errorf("%w: invalid fate kind %v", ErrConfig, fate.Kind)
				}
			}
		}

		// Receive phase: every undecided process that completes round k
		// gets the receive set its inbox assembles from everything the
		// adversary delivers in round k — the delayed messages due now
		// and the round-k message of every sender that reaches it. Every
		// set is assembled before any algorithm sees its own. A process
		// decides a DECIDE the set holds; otherwise its algorithm is
		// handed the set.
		for i := range inbox {
			inbox[i].Begin(k, n)
		}
		for _, d := range pending[k] {
			if !receivers.Has(d.to) {
				continue
			}
			res.MessagesDelivered++
			inbox[d.to-1].Add(d.msg)
		}
		for j := range inbox {
			q := model.ProcessID(j + 1)
			if !receivers.Has(q) {
				continue
			}
			for i := range sent {
				b := &sent[i]
				if !b.sends || b.late.Has(q) {
					continue
				}
				res.MessagesDelivered++
				inbox[j].Add(b.msg)
			}
		}
		for i := 0; i < n; i++ {
			if !receivers.Has(model.ProcessID(i + 1)) {
				continue
			}
			msgs := inbox[i].Take()
			v, ok := inbox[i].Decided()
			if !ok {
				algs[i].EndRound(k, msgs)
				v, ok = algs[i].Decision()
			}
			if ok {
				res.Decisions[i] = Decision{Value: v, Round: k}
				if run != nil {
					run.Procs[i].Decided = model.Some(v)
					run.Procs[i].DecidedRound = k
				}
			}
			if run != nil {
				st := &run.Procs[i].Steps[len(run.Procs[i].Steps)-1]
				st.Completes = true
				st.Received = slices.Clone(msgs)
			}
		}

		if allAliveDecided(s, res, k) {
			break
		}
	}

	res.Rounds = executed
	res.AllAliveDecided = allAliveDecided(s, res, executed)
	if run != nil {
		run.Rounds = executed
	}
	return res, nil
}
