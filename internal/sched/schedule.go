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
	"slices"
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

// strayCrash is a crash no dense table entry can hold: a process outside
// 1..n, or a round below 1. It is kept only so that Validate reports it.
type strayCrash struct {
	p model.ProcessID
	r model.Round
}

// Schedule is a complete adversary script for one run. The zero value is
// not usable; construct with New. Schedules are mutable while being built
// and should be treated as immutable once handed to the simulator.
//
// The per-message queries the simulator asks n² times a round answer
// without hashing: crash rounds live in a dense per-process table, and a
// per-round sender mask says which senders have any scheduled fate, so
// a message whose sender has none is on time without a map lookup.
type Schedule struct {
	n, t int
	gsr  model.Round
	// crash[p-1] is p's crash round; 0 means p never crashes.
	crash []model.Round
	stray []strayCrash
	fates map[fateKey]Fate
	// fated[r] holds every sender in 1..MaxProcesses with at least one
	// scheduled fate in round r ≥ 0; fates outside that grid are found
	// by lookup alone (see ScheduledFrom).
	fated       []model.PIDSet
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
		n:     n,
		t:     t,
		gsr:   1,
		crash: make([]model.Round, max(n, 0)),
		fates: make(map[fateKey]Fate),
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
// round. A crash of a process outside 1..n or in a round below 1 is
// recorded only for Validate to reject.
func (s *Schedule) Crash(p model.ProcessID, r model.Round) *Schedule {
	if !s.inRange(p) || r < 1 {
		s.stray = append(s.stray, strayCrash{p: p, r: r})
		return s
	}
	if cur := s.crash[p-1]; cur == 0 || r < cur {
		s.crash[p-1] = r
	}
	return s
}

// inRange reports whether p is one of the processes 1..n.
func (s *Schedule) inRange(p model.ProcessID) bool {
	return p >= 1 && int(p) <= len(s.crash)
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
	if onGrid(r, from) {
		for int(r) >= len(s.fated) {
			s.fated = append(s.fated, 0)
		}
		s.fated[r].Add(from)
	}
	return s
}

// onGrid reports whether the sender mask can hold a fate of from's
// round-r messages.
func onGrid(r model.Round, from model.ProcessID) bool {
	return r >= 0 && from >= 1 && from <= model.MaxProcesses
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
	if from == to || !s.ScheduledFrom(r, from) {
		return OnTimeFate
	}
	if f, ok := s.fates[fateKey{round: r, from: from, to: to}]; ok {
		return f
	}
	return OnTimeFate
}

// ScheduledFrom reports whether some round-r message from p may have a
// scheduled fate. When it is false, every round-r message from p is
// delivered on time, and callers may skip FateOf for each receiver.
func (s *Schedule) ScheduledFrom(r model.Round, p model.ProcessID) bool {
	if !onGrid(r, p) {
		return true // off the mask: only the fate map knows
	}
	return int(r) < len(s.fated) && s.fated[r].Has(p)
}

// CrashRound returns the round in which p crashes, if it does.
func (s *Schedule) CrashRound(p model.ProcessID) (model.Round, bool) {
	if !s.inRange(p) {
		return 0, false
	}
	r := s.crash[p-1]
	return r, r != 0
}

// Crashes returns the number of crashing processes.
func (s *Schedule) Crashes() int {
	c := len(s.stray)
	for _, r := range s.crash {
		if r != 0 {
			c++
		}
	}
	return c
}

// Correct reports whether p never crashes in this schedule.
func (s *Schedule) Correct(p model.ProcessID) bool {
	_, crashed := s.CrashRound(p)
	return !crashed
}

// CorrectSet returns the set of processes that never crash.
func (s *Schedule) CorrectSet() model.PIDSet {
	set := model.FullPIDSet(s.n)
	for i, r := range s.crash {
		if r != 0 {
			set.Remove(model.ProcessID(i + 1))
		}
	}
	return set
}

// SendsIn reports whether p executes the send phase of round r (it has not
// crashed in an earlier round).
func (s *Schedule) SendsIn(p model.ProcessID, r model.Round) bool {
	cr, crashed := s.CrashRound(p)
	return !crashed || r <= cr
}

// CompletesRound reports whether p completes round r (receives in r): p
// must not crash in round r or earlier.
func (s *Schedule) CompletesRound(p model.ProcessID, r model.Round) bool {
	cr, crashed := s.CrashRound(p)
	return !crashed || r < cr
}

// MaxScheduledRound returns the largest round mentioned by the schedule:
// crash rounds, explicitly scheduled send rounds, delayed delivery rounds
// and the GSR. Beyond it the run is failure-free and synchronous.
func (s *Schedule) MaxScheduledRound() model.Round {
	max := s.gsr
	for _, r := range s.crash {
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
	for i, r := range s.crash {
		if r != 0 && slices.Contains(s.crash[i+1:], r) {
			return false
		}
	}
	return true
}

// CopyFrom resets s to a deep copy of src while keeping s's allocated
// capacity — the allocation-free counterpart of Clone for callers that
// rebuild many schedule variants from one prototype (the lower-bound
// explorer's workers).
func (s *Schedule) CopyFrom(src *Schedule) *Schedule {
	s.n, s.t, s.gsr, s.allowUnsafe = src.n, src.t, src.gsr, src.allowUnsafe
	s.crash = append(s.crash[:0], src.crash...)
	s.stray = append(s.stray[:0], src.stray...)
	s.fated = append(s.fated[:0], src.fated...)
	if s.fates == nil {
		s.fates = make(map[fateKey]Fate, len(src.fates))
	} else {
		clear(s.fates)
	}
	for k, f := range src.fates {
		s.fates[k] = f
	}
	return s
}

// Clone returns a deep copy of the schedule.
func (s *Schedule) Clone() *Schedule {
	return (&Schedule{fates: make(map[fateKey]Fate, len(s.fates))}).CopyFrom(s)
}

// String renders a compact, deterministic description of the schedule,
// suitable for reporting worst-case witnesses.
func (s *Schedule) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "sched{n=%d t=%d gsr=%d", s.n, s.t, s.gsr)
	for i, r := range s.crash {
		if r != 0 {
			fmt.Fprintf(&b, " crash(p%d@r%d)", i+1, r)
		}
	}
	for _, c := range s.stray {
		fmt.Fprintf(&b, " crash(p%d@r%d)", c.p, c.r)
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
