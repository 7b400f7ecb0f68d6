package sched

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"indulgence/internal/model"
)

// refSchedule is a map-based model of a Schedule's message fates, the
// representation the dense cells replaced: every SetFate is one map entry,
// whatever its round, processes or kind. Crashes, the GSR and the options
// are not fates; they live in a fate-free Schedule that receives the same
// calls. Loops walk keys, not the map, so that the fuzzer sees the same
// coverage every time it runs one input.
type refSchedule struct {
	crashes *Schedule
	fates   map[fateKey]Fate
	keys    []fateKey // every key of fates, in the order first set
}

func newRef(n, t int, opts ...Option) *refSchedule {
	return &refSchedule{crashes: New(n, t, opts...), fates: make(map[fateKey]Fate)}
}

func (m *refSchedule) setFate(r model.Round, from, to model.ProcessID, f Fate) {
	k := fateKey{round: r, from: from, to: to}
	if _, ok := m.fates[k]; !ok {
		m.keys = append(m.keys, k)
	}
	m.fates[k] = f
}

func (m *refSchedule) crashWithReceivers(p model.ProcessID, r model.Round, receivers model.PIDSet) {
	m.crashes.Crash(p, r)
	for q := model.ProcessID(1); int(q) <= m.crashes.N(); q++ {
		switch {
		case q == p:
		case receivers.Has(q):
			m.setFate(r, p, q, OnTimeFate)
		default:
			m.setFate(r, p, q, Fate{Kind: Lost})
		}
	}
}

func (m *refSchedule) fateOf(r model.Round, from, to model.ProcessID) Fate {
	if f, ok := m.fates[fateKey{round: r, from: from, to: to}]; ok && from != to {
		return f
	}
	return OnTimeFate
}

// scheduledFrom is true off the grid of senders 1..MaxProcesses and rounds
// from 0, and on it exactly when some fate of from's round-r messages was
// set.
func (m *refSchedule) scheduledFrom(r model.Round, from model.ProcessID) bool {
	if !onGrid(r, from) {
		return true
	}
	for _, k := range m.keys {
		if k.round == r && k.from == from {
			return true
		}
	}
	return false
}

func (m *refSchedule) maxScheduledRound() model.Round {
	max := m.crashes.MaxScheduledRound()
	for _, k := range m.keys {
		if f := m.fates[k]; f.Kind == Delayed && f.DeliverRound > max {
			max = f.DeliverRound
		}
		if k.round > max {
			max = k.round
		}
	}
	return max
}

func (m *refSchedule) sortedKeys() []fateKey {
	return slices.SortedFunc(slices.Values(m.keys), compareKeys)
}

func (m *refSchedule) String() string {
	var b strings.Builder
	b.WriteString(strings.TrimSuffix(m.crashes.String(), "}"))
	for _, k := range m.sortedKeys() {
		switch f := m.fates[k]; f.Kind {
		case Lost:
			fmt.Fprintf(&b, " drop(r%d p%d->p%d)", k.round, k.from, k.to)
		case Delayed:
			fmt.Fprintf(&b, " delay(r%d p%d->p%d @r%d)", k.round, k.from, k.to, f.DeliverRound)
		}
	}
	b.WriteByte('}')
	return b.String()
}

// validate checks the shape, then every fate in (round, from, to) order,
// then t-resilience over the model's own fates.
func (m *refSchedule) validate(syn model.Synchrony) error {
	s := m.crashes
	if err := s.validateShape(syn); err != nil {
		return err
	}
	for _, k := range m.sortedKeys() {
		if err := s.validateFate(syn, k, m.fates[k]); err != nil {
			return err
		}
	}
	if syn != model.ES {
		return nil
	}
	quorum := s.n - s.t
	for r := model.Round(1); r <= m.maxScheduledRound(); r++ {
		for p := model.ProcessID(1); int(p) <= s.n; p++ {
			if !s.CompletesRound(p, r) {
				continue
			}
			onTime := 0
			for q := model.ProcessID(1); int(q) <= s.n; q++ {
				if s.SendsIn(q, r) && m.fateOf(r, q, p).Kind == OnTime {
					onTime++
				}
			}
			if onTime < quorum {
				return fmt.Errorf("%w: p%d receives %d < n-t=%d round-%d messages",
					ErrTResilience, p, onTime, quorum, r)
			}
		}
	}
	return nil
}

// fuzzBytes reads a fuzz input one byte at a time, zeros past its end.
type fuzzBytes []byte

func (b *fuzzBytes) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := (*b)[0]
	*b = (*b)[1:]
	return int(v)
}

// round picks a round: mostly 1..6, sometimes one no cell holds.
func (b *fuzzBytes) round() model.Round {
	return []model.Round{1, 2, 3, 4, 5, 6, 1, 2, 3, 0, -1, maxCellRound + 1}[b.next()%12]
}

// process picks a process: mostly 1..n, sometimes one outside it.
func (b *fuzzBytes) process(n int) model.ProcessID {
	v := b.next() % (n + 4)
	if v < n {
		return model.ProcessID(v + 1)
	}
	return []model.ProcessID{0, -1, model.ProcessID(n + 1), 70}[v-n]
}

// checkAgainstReference replays the operations data encodes on a
// Schedule and on the reference model, and fails if any query disagrees.
func checkAgainstReference(t *testing.T, data []byte) {
	in := fuzzBytes(data)
	n := 2 + in.next()%6
	t0 := in.next() % n
	var opts []Option
	if v := in.next(); v%4 != 0 {
		opts = append(opts, WithGSR(model.Round(v%4)))
	}
	if in.next()%3 == 0 {
		opts = append(opts, AllowUnsafeResilience())
	}
	s, ref := New(n, t0, opts...), newRef(n, t0, opts...)
	var ops []string
	var r model.Round
	var from, to model.ProcessID
	for len(in) > 0 {
		// A third of the operations overwrite the previous one's message.
		if in.next()%3 != 0 {
			r, from, to = in.round(), in.process(n), in.process(n)
		}
		switch op := in.next() % 9; op {
		case 0:
			// A delivery round half the time: cells hold OnTime and Lost
			// fates only without one.
			f := Fate{Kind: FateKind(in.next() % 5)}
			if d := in.next() % 8; d >= 4 {
				f.DeliverRound = r + model.Round(d-4)
			}
			s.SetFate(r, from, to, f)
			ref.setFate(r, from, to, f)
			ops = append(ops, fmt.Sprintf("SetFate(%d, %d, %d, %+v)", r, from, to, f))
		case 1, 2:
			s.Drop(r, from, to)
			ref.setFate(r, from, to, Fate{Kind: Lost})
			ops = append(ops, fmt.Sprintf("Drop(%d, %d, %d)", r, from, to))
		case 3, 4:
			d := r + model.Round(in.next()%4)
			s.Delay(r, from, to, d)
			ref.setFate(r, from, to, Fate{Kind: Delayed, DeliverRound: d})
			ops = append(ops, fmt.Sprintf("Delay(%d, %d, %d, %d)", r, from, to, d))
		case 5:
			s.Crash(from, r)
			ref.crashes.Crash(from, r)
			ops = append(ops, fmt.Sprintf("Crash(%d, %d)", from, r))
		case 6:
			s.CrashSilent(from, r)
			ref.crashWithReceivers(from, r, 0)
			ops = append(ops, fmt.Sprintf("CrashSilent(%d, %d)", from, r))
		case 7:
			recv := model.PIDSet(in.next())
			s.CrashWithReceivers(from, r, recv)
			ref.crashWithReceivers(from, r, recv)
			ops = append(ops, fmt.Sprintf("CrashWithReceivers(%d, %d, %v)", from, r, recv))
		case 8:
			// Copy into a schedule that holds other fates, or clone.
			if in.next()%2 == 0 {
				s = New(9, 4).Drop(2, 1, 3).Delay(1, 2, 3, 4).Drop(0, 9, 9).Crash(5, 1).CopyFrom(s)
				ops = append(ops, "CopyFrom")
			} else {
				s = s.Clone()
				ops = append(ops, "Clone")
			}
		}
	}
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("after New(%d, %d) %s:\n%s", n, t0, strings.Join(ops, " "), fmt.Sprintf(format, args...))
	}
	if got, want := s.String(), ref.String(); got != want {
		fail("String\ngot  %s\nwant %s", got, want)
	}
	if got, want := s.MaxScheduledRound(), ref.maxScheduledRound(); got != want {
		fail("MaxScheduledRound = %d, want %d", got, want)
	}
	for _, syn := range []model.Synchrony{model.SCS, model.ES} {
		if got, want := s.Validate(syn), ref.validate(syn); fmt.Sprint(got) != fmt.Sprint(want) {
			fail("Validate(%v) = %v, want %v", syn, got, want)
		}
	}
	rounds := []model.Round{-1, 0, 1, 2, 3, 4, 5, 6, 7, maxCellRound + 1}
	procs := []model.ProcessID{-1, 0, 70}
	for p := model.ProcessID(1); int(p) <= n+1; p++ {
		procs = append(procs, p)
	}
	for _, r := range rounds {
		for _, from := range procs {
			if got, want := s.ScheduledFrom(r, from), ref.scheduledFrom(r, from); got != want {
				fail("ScheduledFrom(%d, %d) = %v, want %v", r, from, got, want)
			}
			for _, to := range procs {
				if got, want := s.FateOf(r, from, to), ref.fateOf(r, from, to); got != want {
					fail("FateOf(%d, %d, %d) = %+v, want %+v", r, from, to, got, want)
				}
			}
		}
	}
}

// FuzzScheduleFates checks the dense fate cells against the map-based
// reference model over random sequences of SetFate, Drop, Delay, Crash,
// CrashSilent, CrashWithReceivers, CopyFrom and Clone — overwrites,
// self-messages, out-of-range processes and rounds, and invalid kinds
// included — comparing FateOf, ScheduledFrom, MaxScheduledRound, String
// and Validate.
func FuzzScheduleFates(f *testing.F) {
	f.Add([]byte{3, 2, 1, 0})
	f.Add([]byte{3, 2, 0, 1, 0, 1, 2, 1, 0, 1, 2, 3, 0, 0, 1, 2, 3, 3, 1})
	f.Add([]byte{4, 1, 2, 1, 1, 0, 1, 7, 5, 2, 1, 0, 4, 2, 1, 2, 0, 3, 3, 8, 0})
	f.Add([]byte{5, 2, 0, 1, 2, 1, 2, 4, 1, 2, 1, 1, 1, 2, 1, 0, 4, 0, 0, 0, 1, 2, 2, 8, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		// Twenty-odd operations reach every path, and the minimizer's
		// work grows with the square of an input's length.
		if len(data) > 128 {
			t.Skip()
		}
		checkAgainstReference(t, data)
	})
}

// TestScheduleMatchesReference runs the fuzz target's check over a fixed
// set of random inputs, so that every test run covers the cells beyond
// the seed corpus.
func TestScheduleMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 3000; i++ {
		data := make([]byte, 4+rng.Intn(60))
		rng.Read(data)
		checkAgainstReference(t, data)
	}
}
