// Package sched defines adversary schedules for the round-based models SCS
// and ES of "The inherent price of indulgence", together with a validator
// enforcing the exact model axioms and generators for the run families used
// throughout the paper (failure-free runs, synchronous runs, serial runs,
// eventually synchronous runs with an asynchronous prefix, coordinator
// killers, and the split-brain schedule behind the t < n/2 resilience
// price).
//
// A Schedule fixes, for one run, (a) which processes crash and in which
// round, (b) the fate of every message — delivered in its send round,
// delayed to a later round, or lost — and (c) the global stabilization
// round GSR, the paper's K: the first round from which delivery is
// synchronous. A run is synchronous exactly when GSR = 1, and serial when
// additionally at most one process crashes per round.
package sched

import (
	"fmt"
	"sort"
	"strings"

	"indulgence/internal/model"
)

// FateKind classifies what happens to one message.
type FateKind uint8

const (
	// OnTime delivers the message in the round it was sent.
	OnTime FateKind = iota + 1
	// Delayed delivers the message in a later round (only in ES; the
	// source of false suspicions).
	Delayed
	// Lost never delivers the message.
	Lost
)

// String implements fmt.Stringer.
func (k FateKind) String() string {
	switch k {
	case OnTime:
		return "on-time"
	case Delayed:
		return "delayed"
	case Lost:
		return "lost"
	default:
		return fmt.Sprintf("FateKind(%d)", uint8(k))
	}
}

// Fate is the fate of a single message.
type Fate struct {
	Kind FateKind
	// DeliverRound is the round in which a Delayed message is delivered.
	// It must be strictly greater than the send round. Unused otherwise.
	DeliverRound model.Round
}

// OnTimeFate is the default fate of every message not explicitly scheduled.
var OnTimeFate = Fate{Kind: OnTime}

type fateKey struct {
	round    model.Round
	from, to model.ProcessID
}

// Schedule is a complete adversary script for one run. The zero value is
// not usable; construct with New. Schedules are mutable while being built
// and should be treated as immutable once handed to the simulator.
type Schedule struct {
	n, t        int
	gsr         model.Round
	crashes     map[model.ProcessID]model.Round
	fates       map[fateKey]Fate
	allowUnsafe bool
}

// Option configures a Schedule at construction time.
type Option func(*Schedule)

// WithGSR sets the global stabilization round K. The default is 1
// (a synchronous run).
func WithGSR(k model.Round) Option {
	return func(s *Schedule) { s.gsr = k }
}

// AllowUnsafeResilience disables the t < n/2 indulgence-resilience check in
// Validate. It exists solely for the Sect. 1.1 resilience-price experiment,
// which demonstrates an agreement violation when a majority may fail.
func AllowUnsafeResilience() Option {
	return func(s *Schedule) { s.allowUnsafe = true }
}

// New returns an empty (failure-free, fully synchronous) schedule for a
// system of n processes tolerating t crashes.
func New(n, t int, opts ...Option) *Schedule {
	s := &Schedule{
		n:       n,
		t:       t,
		gsr:     1,
		crashes: make(map[model.ProcessID]model.Round),
		fates:   make(map[fateKey]Fate),
	}
	for _, o := range opts {
		o(s)
	}
	return s
}

// N returns the system size.
func (s *Schedule) N() int { return s.n }

// T returns the resilience bound.
func (s *Schedule) T() int { return s.t }

// GSR returns the global stabilization round K (1 for synchronous runs).
func (s *Schedule) GSR() model.Round { return s.gsr }

// Crash schedules process p to crash in round r: p sends its round-r
// messages according to their scheduled fates (default: delivered on time)
// and does not complete round r (it receives nothing in round r and sends
// nothing afterwards). Crashing the same process twice keeps the earlier
// round.
func (s *Schedule) Crash(p model.ProcessID, r model.Round) *Schedule {
	if cur, ok := s.crashes[p]; !ok || r < cur {
		s.crashes[p] = r
	}
	return s
}

// CrashSilent schedules p to crash at the beginning of round r, before
// sending any round-r message (every round-r message from p is lost).
func (s *Schedule) CrashSilent(p model.ProcessID, r model.Round) *Schedule {
	s.Crash(p, r)
	for q := model.ProcessID(1); int(q) <= s.n; q++ {
		if q != p {
			s.SetFate(r, p, q, Fate{Kind: Lost})
		}
	}
	return s
}

// CrashWithReceivers schedules p to crash in round r such that exactly the
// processes in receivers obtain p's round-r message in round r and all
// other processes never receive it. p itself always observes its own
// message, so its membership in receivers is irrelevant.
func (s *Schedule) CrashWithReceivers(p model.ProcessID, r model.Round, receivers model.PIDSet) *Schedule {
	s.Crash(p, r)
	for q := model.ProcessID(1); int(q) <= s.n; q++ {
		if q == p {
			continue
		}
		if receivers.Has(q) {
			s.SetFate(r, p, q, OnTimeFate)
		} else {
			s.SetFate(r, p, q, Fate{Kind: Lost})
		}
	}
	return s
}

// SetFate schedules the fate of the message sent by from to to in round r.
// Self-messages cannot be scheduled (they are always delivered in-round).
func (s *Schedule) SetFate(r model.Round, from, to model.ProcessID, f Fate) *Schedule {
	s.fates[fateKey{round: r, from: from, to: to}] = f
	return s
}

// Delay schedules the round-r message from from to to to be delivered in
// round deliver (> r).
func (s *Schedule) Delay(r model.Round, from, to model.ProcessID, deliver model.Round) *Schedule {
	return s.SetFate(r, from, to, Fate{Kind: Delayed, DeliverRound: deliver})
}

// Drop schedules the round-r message from from to to to be lost.
func (s *Schedule) Drop(r model.Round, from, to model.ProcessID) *Schedule {
	return s.SetFate(r, from, to, Fate{Kind: Lost})
}

// FateOf returns the fate of the round-r message from from to to.
// Unscheduled messages are delivered on time; self-messages are always on
// time regardless of any scheduled fate.
func (s *Schedule) FateOf(r model.Round, from, to model.ProcessID) Fate {
	if from == to {
		return OnTimeFate
	}
	if f, ok := s.fates[fateKey{round: r, from: from, to: to}]; ok {
		return f
	}
	return OnTimeFate
}

// CrashRound returns the round in which p crashes, if it does.
func (s *Schedule) CrashRound(p model.ProcessID) (model.Round, bool) {
	r, ok := s.crashes[p]
	return r, ok
}

// Crashes returns the number of crashing processes.
func (s *Schedule) Crashes() int { return len(s.crashes) }

// Correct reports whether p never crashes in this schedule.
func (s *Schedule) Correct(p model.ProcessID) bool {
	_, crashed := s.crashes[p]
	return !crashed
}

// CorrectSet returns the set of processes that never crash.
func (s *Schedule) CorrectSet() model.PIDSet {
	set := model.FullPIDSet(s.n)
	for p := range s.crashes {
		set.Remove(p)
	}
	return set
}

// SendsIn reports whether p executes the send phase of round r (it has not
// crashed in an earlier round).
func (s *Schedule) SendsIn(p model.ProcessID, r model.Round) bool {
	cr, crashed := s.crashes[p]
	return !crashed || r <= cr
}

// CompletesRound reports whether p completes round r (receives in r): p
// must not crash in round r or earlier.
func (s *Schedule) CompletesRound(p model.ProcessID, r model.Round) bool {
	cr, crashed := s.crashes[p]
	return !crashed || r < cr
}

// MaxScheduledRound returns the largest round mentioned by the schedule:
// crash rounds, explicitly scheduled send rounds, delayed delivery rounds
// and the GSR. Beyond it the run is failure-free and synchronous.
func (s *Schedule) MaxScheduledRound() model.Round {
	max := s.gsr
	for _, r := range s.crashes {
		if r > max {
			max = r
		}
	}
	for k, f := range s.fates {
		if k.round > max {
			max = k.round
		}
		if f.Kind == Delayed && f.DeliverRound > max {
			max = f.DeliverRound
		}
	}
	return max
}

// IsSerial reports whether the schedule describes a serial run in the
// paper's sense: a synchronous run (GSR = 1) with at most one crash per
// round.
func (s *Schedule) IsSerial() bool {
	if s.gsr != 1 {
		return false
	}
	perRound := make(map[model.Round]int, len(s.crashes))
	for _, r := range s.crashes {
		perRound[r]++
		if perRound[r] > 1 {
			return false
		}
	}
	return true
}

// CopyFrom resets s to a deep copy of src while keeping s's allocated map
// capacity — the allocation-free counterpart of Clone for callers that
// rebuild many schedule variants from one prototype (the lower-bound
// explorer's workers).
func (s *Schedule) CopyFrom(src *Schedule) *Schedule {
	s.n, s.t, s.gsr, s.allowUnsafe = src.n, src.t, src.gsr, src.allowUnsafe
	if s.crashes == nil {
		s.crashes = make(map[model.ProcessID]model.Round, len(src.crashes))
	} else {
		clear(s.crashes)
	}
	if s.fates == nil {
		s.fates = make(map[fateKey]Fate, len(src.fates))
	} else {
		clear(s.fates)
	}
	for p, r := range src.crashes {
		s.crashes[p] = r
	}
	for k, f := range src.fates {
		s.fates[k] = f
	}
	return s
}

// Clone returns a deep copy of the schedule.
func (s *Schedule) Clone() *Schedule {
	c := &Schedule{
		n:           s.n,
		t:           s.t,
		gsr:         s.gsr,
		crashes:     make(map[model.ProcessID]model.Round, len(s.crashes)),
		fates:       make(map[fateKey]Fate, len(s.fates)),
		allowUnsafe: s.allowUnsafe,
	}
	for p, r := range s.crashes {
		c.crashes[p] = r
	}
	for k, f := range s.fates {
		c.fates[k] = f
	}
	return c
}

// String renders a compact, deterministic description of the schedule,
// suitable for reporting worst-case witnesses.
func (s *Schedule) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "sched{n=%d t=%d gsr=%d", s.n, s.t, s.gsr)
	crashed := make([]model.ProcessID, 0, len(s.crashes))
	for p := range s.crashes {
		crashed = append(crashed, p)
	}
	sort.Slice(crashed, func(i, j int) bool { return crashed[i] < crashed[j] })
	for _, p := range crashed {
		fmt.Fprintf(&b, " crash(p%d@r%d)", p, s.crashes[p])
	}
	keys := make([]fateKey, 0, len(s.fates))
	for k := range s.fates {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.round != b.round {
			return a.round < b.round
		}
		if a.from != b.from {
			return a.from < b.from
		}
		return a.to < b.to
	})
	for _, k := range keys {
		f := s.fates[k]
		switch f.Kind {
		case Lost:
			fmt.Fprintf(&b, " drop(r%d p%d->p%d)", k.round, k.from, k.to)
		case Delayed:
			fmt.Fprintf(&b, " delay(r%d p%d->p%d @r%d)", k.round, k.from, k.to, f.DeliverRound)
		}
	}
	b.WriteByte('}')
	return b.String()
}
