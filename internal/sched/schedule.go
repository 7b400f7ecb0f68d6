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
//
// A Schedule is stored densely — a crash table per process and a cell of
// receiver masks per (round, sender) — so that the simulator's
// per-message queries and the explorer's per-run rebuild hash nothing.
package sched

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
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

// compareKeys orders fate keys by (round, from, to).
func compareKeys(a, b fateKey) int {
	switch {
	case a.round != b.round:
		return cmp.Compare(a.round, b.round)
	case a.from != b.from:
		return cmp.Compare(a.from, b.from)
	default:
		return cmp.Compare(a.to, b.to)
	}
}

// cell holds the OnTime and Lost fates scheduled for one sender's
// messages of one round, one bit per receiver: a receiver in explicit has
// one, and it is Lost if the receiver is in lost.
type cell struct {
	explicit, lost model.PIDSet
}

// listedFate is a fate the cells do not hold: a Delayed one, or one no
// cell can hold — a self-message, a process outside 1..n (or past
// MaxProcesses), a round outside 1..maxCellRound, a kind other than
// OnTime, Delayed and Lost, or an OnTime or Lost fate with a delivery
// round.
type listedFate struct {
	key  fateKey
	fate Fate
}

// compareListed orders a listed fate against a key.
func compareListed(lf listedFate, k fateKey) int { return compareKeys(lf.key, k) }

// maxCellRound is the last round the cells hold. A fate of a later round —
// no run in this repository comes near — is listed, so that one far-off
// round does not size the table.
const maxCellRound = 1 << 10

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
// Nothing is hashed. Crash rounds live in a dense per-process table, and
// OnTime and Lost fates in dense per-(round, sender) cells of receiver
// masks, so the per-message queries the simulator asks n² times a round
// are a bounds check and a bit test, and a crash that reaches a subset of
// the receivers is one table write and one cell write. Only Delayed
// messages, and fates no cell can hold, are listed one by one.
type Schedule struct {
	n, t int
	gsr  model.Round
	// crash[p-1] is p's crash round; 0 means p never crashes.
	crash []model.Round
	stray []strayCrash
	// cells[(r-1)*n + from-1] holds the OnTime and Lost fates of from's
	// round-r messages; the table grows to the last round they name.
	cells []cell
	// listed holds every other fate, sorted by key. A serial run has
	// none.
	listed      []listedFate
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
	return s.CrashWithReceivers(p, r, 0)
}

// CrashWithReceivers schedules p to crash in round r such that exactly the
// processes in receivers obtain p's round-r message in round r and all
// other processes never receive it. p itself always observes its own
// message, so its membership in receivers is irrelevant.
func (s *Schedule) CrashWithReceivers(p model.ProcessID, r model.Round, receivers model.PIDSet) *Schedule {
	s.Crash(p, r)
	others := model.FullPIDSet(s.n)
	others.Remove(p)
	// One cell write, unless a listed fate of the row would have to be
	// overwritten too.
	if c := s.cellAt(r, p, true); c != nil && s.n <= model.MaxProcesses && !s.listedFrom(r, p) {
		*c = cell{explicit: others, lost: others.Diff(receivers)}
		return s
	}
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
	key := fateKey{round: r, from: from, to: to}
	// A key past the last listed one (a generator adding fates in key
	// order) is appended without a search.
	i, listed := len(s.listed), false
	if i > 0 && compareKeys(s.listed[i-1].key, key) >= 0 {
		i, listed = slices.BinarySearchFunc(s.listed, key, compareListed)
	}
	var c *cell
	if from != to && to >= 1 && int(to) <= min(s.n, model.MaxProcesses) {
		c = s.cellAt(r, from, true)
	}
	if c != nil && (f == OnTimeFate || f == Fate{Kind: Lost}) {
		if listed {
			s.listed = slices.Delete(s.listed, i, i+1)
		}
		c.explicit.Add(to)
		if f.Kind == Lost {
			c.lost.Add(to)
		} else {
			c.lost.Remove(to)
		}
		return s
	}
	if c != nil {
		c.explicit.Remove(to)
		c.lost.Remove(to)
	}
	if listed {
		s.listed[i].fate = f
	} else {
		s.listed = slices.Insert(s.listed, i, listedFate{key: key, fate: f})
	}
	return s
}

// listedFrom reports whether a fate of from's round-r messages is listed.
func (s *Schedule) listedFrom(r model.Round, from model.ProcessID) bool {
	i, _ := slices.BinarySearchFunc(s.listed, fateKey{round: r, from: from, to: math.MinInt}, compareListed)
	return i < len(s.listed) && s.listed[i].key.round == r && s.listed[i].key.from == from
}

// cellAt returns the cell of from's round-r messages, or nil if no cell
// can hold them. With grow, the table grows to round r.
func (s *Schedule) cellAt(r model.Round, from model.ProcessID, grow bool) *cell {
	if r < 1 || r > maxCellRound || from < 1 || int(from) > s.n {
		return nil
	}
	i := int(r-1)*s.n + int(from-1)
	if i >= len(s.cells) {
		if !grow {
			return nil
		}
		old := len(s.cells)
		s.cells = slices.Grow(s.cells, int(r)*s.n-old)[:int(r)*s.n]
		clear(s.cells[old:])
	}
	return &s.cells[i]
}

// onGrid reports whether the cells and the list answer ScheduledFrom for
// from's round-r messages; off it, ScheduledFrom answers true.
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
	if from == to {
		return OnTimeFate
	}
	if c := s.cellAt(r, from, false); c != nil && c.explicit.Has(to) {
		if c.lost.Has(to) {
			return Fate{Kind: Lost}
		}
		return OnTimeFate
	}
	if i, found := slices.BinarySearchFunc(s.listed, fateKey{round: r, from: from, to: to}, compareListed); found {
		return s.listed[i].fate
	}
	return OnTimeFate
}

// ScheduledFrom reports whether some round-r message from p may have a
// scheduled fate. When it is false, every round-r message from p is
// delivered on time, and callers may skip FateOf for each receiver.
func (s *Schedule) ScheduledFrom(r model.Round, p model.ProcessID) bool {
	if c := s.cellAt(r, p, false); c != nil && c.explicit != 0 {
		return true
	}
	return !onGrid(r, p) || s.listedFrom(r, p)
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
	for i := len(s.cells) - 1; i >= 0 && model.Round(i/s.n+1) > max; i-- {
		if s.cells[i].explicit != 0 {
			max = model.Round(i/s.n + 1)
			break
		}
	}
	for _, lf := range s.listed {
		if lf.key.round > max {
			max = lf.key.round
		}
		if lf.fate.Kind == Delayed && lf.fate.DeliverRound > max {
			max = lf.fate.DeliverRound
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
	s.cells = append(s.cells[:0], src.cells...)
	s.listed = append(s.listed[:0], src.listed...)
	return s
}

// Clone returns a deep copy of the schedule.
func (s *Schedule) Clone() *Schedule {
	return new(Schedule).CopyFrom(s)
}

// fates yields every scheduled fate, self-messages included, in (round,
// from, to) order: it merges the cells with the list.
func (s *Schedule) fates(yield func(fateKey, Fate) bool) {
	listed := s.listed
	for i, c := range s.cells {
		for m := c.explicit; m != 0; m &= m - 1 {
			to := model.ProcessID(bits.TrailingZeros64(uint64(m)) + 1)
			key := fateKey{round: model.Round(i/s.n + 1), from: model.ProcessID(i%s.n + 1), to: to}
			for ; len(listed) > 0 && compareKeys(listed[0].key, key) < 0; listed = listed[1:] {
				if !yield(listed[0].key, listed[0].fate) {
					return
				}
			}
			f := OnTimeFate
			if c.lost.Has(to) {
				f = Fate{Kind: Lost}
			}
			if !yield(key, f) {
				return
			}
		}
	}
	for _, lf := range listed {
		if !yield(lf.key, lf.fate) {
			return
		}
	}
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
	for k, f := range s.fates {
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
