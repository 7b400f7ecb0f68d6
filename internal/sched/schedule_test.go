package sched

import (
	"strings"
	"testing"

	"indulgence/internal/model"
)

func TestFateDefaults(t *testing.T) {
	s := New(4, 1)
	if f := s.FateOf(3, 1, 2); f.Kind != OnTime {
		t.Fatalf("default fate = %v, want on-time", f)
	}
	s.Delay(3, 1, 2, 5)
	if f := s.FateOf(3, 1, 2); f.Kind != Delayed || f.DeliverRound != 5 {
		t.Fatalf("delayed fate = %v", f)
	}
	s.Drop(2, 1, 2)
	if f := s.FateOf(2, 1, 2); f.Kind != Lost {
		t.Fatalf("dropped fate = %v", f)
	}
	// Self-messages are always on time, even if scheduled otherwise.
	s.Drop(1, 2, 2)
	if f := s.FateOf(1, 2, 2); f.Kind != OnTime {
		t.Fatalf("self fate = %v, want on-time", f)
	}
}

func TestCrashBookkeeping(t *testing.T) {
	s := New(5, 2)
	s.Crash(3, 4)
	s.Crash(3, 2) // earlier round wins
	if r, ok := s.CrashRound(3); !ok || r != 2 {
		t.Fatalf("crash round = %d, %v", r, ok)
	}
	s.Crash(3, 6) // later round ignored
	if r, _ := s.CrashRound(3); r != 2 {
		t.Fatalf("crash round moved to %d", r)
	}
	if s.Crashes() != 1 {
		t.Fatalf("crashes = %d", s.Crashes())
	}
	if s.Correct(3) || !s.Correct(1) {
		t.Fatal("correctness misreported")
	}
	if got := s.CorrectSet(); got.Has(3) || got.Len() != 4 {
		t.Fatalf("correct set = %v", got)
	}
	// A process sends in its crash round but does not complete it.
	if !s.SendsIn(3, 2) || s.SendsIn(3, 3) {
		t.Fatal("SendsIn wrong around crash")
	}
	if !s.CompletesRound(3, 1) || s.CompletesRound(3, 2) {
		t.Fatal("CompletesRound wrong around crash")
	}
}

func TestCrashHelpers(t *testing.T) {
	s := New(4, 1)
	s.CrashSilent(2, 3)
	for q := model.ProcessID(1); q <= 4; q++ {
		if q == 2 {
			continue
		}
		if f := s.FateOf(3, 2, q); f.Kind != Lost {
			t.Fatalf("silent crash: fate to p%d = %v", q, f)
		}
	}
	s2 := New(4, 1)
	s2.CrashWithReceivers(2, 3, model.NewPIDSet(1, 4))
	if s2.FateOf(3, 2, 1).Kind != OnTime || s2.FateOf(3, 2, 4).Kind != OnTime {
		t.Fatal("receivers should get the message on time")
	}
	if s2.FateOf(3, 2, 3).Kind != Lost {
		t.Fatal("non-receiver should lose the message")
	}
}

func TestMaxScheduledRound(t *testing.T) {
	s := New(4, 1, WithGSR(3))
	if got := s.MaxScheduledRound(); got != 3 {
		t.Fatalf("gsr only: %d", got)
	}
	s.Crash(1, 7)
	if got := s.MaxScheduledRound(); got != 7 {
		t.Fatalf("with crash: %d", got)
	}
	s.Delay(2, 2, 3, 9)
	if got := s.MaxScheduledRound(); got != 9 {
		t.Fatalf("with delay: %d", got)
	}
}

func TestIsSerial(t *testing.T) {
	s := New(5, 2)
	if !s.IsSerial() {
		t.Fatal("failure-free synchronous run must be serial")
	}
	s.Crash(1, 2)
	s.Crash(2, 3)
	if !s.IsSerial() {
		t.Fatal("one crash per round is serial")
	}
	s.Crash(3, 3)
	if s.IsSerial() {
		t.Fatal("two crashes in one round is not serial")
	}
	async := New(5, 2, WithGSR(4))
	if async.IsSerial() {
		t.Fatal("GSR > 1 is not serial")
	}
}

func TestCloneIndependence(t *testing.T) {
	s := New(4, 1)
	s.Crash(1, 2)
	s.Delay(1, 2, 3, 4)
	c := s.Clone()
	c.Crash(2, 1)
	c.Drop(2, 3, 4)
	if s.Crashes() != 1 {
		t.Fatal("clone crash leaked into original")
	}
	if s.FateOf(2, 3, 4).Kind != OnTime {
		t.Fatal("clone fate leaked into original")
	}
	if c.GSR() != s.GSR() || c.N() != s.N() || c.T() != s.T() {
		t.Fatal("clone lost parameters")
	}
}

func TestScheduleString(t *testing.T) {
	s := New(3, 1, WithGSR(2))
	s.Crash(2, 1)
	s.Drop(1, 2, 3)
	s.Delay(1, 1, 3, 4)
	got := s.String()
	for _, want := range []string{"n=3", "t=1", "gsr=2", "crash(p2@r1)", "drop(r1 p2->p3)", "delay(r1 p1->p3 @r4)"} {
		if !strings.Contains(got, want) {
			t.Errorf("String() = %q, missing %q", got, want)
		}
	}
	// Deterministic rendering.
	if s.String() != s.String() {
		t.Fatal("String() not deterministic")
	}
}

func TestCopyFrom(t *testing.T) {
	proto := New(4, 1, WithGSR(3), AllowUnsafeResilience())
	proto.Crash(2, 1)
	proto.Delay(1, 1, 3, 4)

	// CopyFrom overwrites unrelated prior state and matches Clone.
	s := New(9, 5)
	s.Crash(7, 2)
	s.Drop(1, 8, 9)
	s.CopyFrom(proto)
	if s.String() != proto.String() {
		t.Fatalf("CopyFrom mismatch:\ngot  %s\nwant %s", s, proto)
	}
	if s.N() != 4 || s.T() != 1 || s.GSR() != 3 {
		t.Fatalf("parameters not copied: %s", s)
	}
	if err := s.Validate(model.ES); err != nil {
		t.Fatalf("allowUnsafe not copied: %v", err)
	}

	// Mutating the copy leaves the prototype untouched.
	s.Crash(4, 2)
	s.Drop(2, 1, 2)
	if !proto.Correct(4) {
		t.Fatal("CopyFrom aliased the crash map")
	}
	if proto.FateOf(2, 1, 2).Kind != OnTime {
		t.Fatal("CopyFrom aliased the fate cells")
	}

	// Repeated CopyFrom restores the prototype state exactly.
	s.CopyFrom(proto)
	if s.String() != proto.String() {
		t.Fatalf("second CopyFrom mismatch:\ngot  %s\nwant %s", s, proto)
	}
}

// TestHotPathQueriesDoNotAllocate pins the per-message queries the
// simulator asks n² times a round, for senders with and without a
// scheduled fate — a lost, an explicitly on-time, a delayed and an
// unscheduled message, and one off the cells — and a crashed and a
// correct process.
func TestHotPathQueriesDoNotAllocate(t *testing.T) {
	s := New(5, 2)
	s.CrashWithReceivers(2, 3, model.NewPIDSet(1, 4))
	s.Delay(1, 3, 4, 2)
	s.Drop(0, 1, 2)
	var sink int
	cases := map[string]func(){
		"FateOf": func() {
			sink += int(s.FateOf(3, 2, 5).Kind) + int(s.FateOf(3, 2, 4).Kind) + int(s.FateOf(3, 1, 5).Kind) +
				int(s.FateOf(1, 3, 4).Kind) + int(s.FateOf(0, 1, 2).Kind) + int(s.FateOf(9, 2, 5).Kind)
		},
		"ScheduledFrom": func() {
			if s.ScheduledFrom(3, 2) || s.ScheduledFrom(3, 1) || s.ScheduledFrom(0, 1) || s.ScheduledFrom(9, 2) {
				sink++
			}
		},
		"SendsIn": func() {
			if s.SendsIn(2, 4) || s.SendsIn(1, 9) {
				sink++
			}
		},
		"CompletesRound": func() {
			if s.CompletesRound(2, 3) || s.CompletesRound(1, 9) {
				sink++
			}
		},
		"CrashRound": func() {
			r, _ := s.CrashRound(2)
			q, _ := s.CrashRound(1)
			sink += int(r + q)
		},
	}
	for name, f := range cases {
		if allocs := testing.AllocsPerRun(100, f); allocs != 0 {
			t.Errorf("%s: %v allocs per call, want 0", name, allocs)
		}
	}
	_ = sink
}

// TestCopyFromRebuildDoesNotAllocate pins the explorer's per-run schedule
// rebuild: once the scratch schedule has seen one run of this shape,
// copying the prototype and placing two crashes allocates nothing.
func TestCopyFromRebuildDoesNotAllocate(t *testing.T) {
	proto := New(6, 2)
	scratch := New(6, 2)
	heard3, heard5 := model.NewPIDSet(1, 2), model.NewPIDSet(6)
	rebuild := func() {
		scratch.CopyFrom(proto)
		scratch.CrashWithReceivers(3, 2, heard3)
		scratch.CrashWithReceivers(5, 4, heard5)
	}
	rebuild() // warm-up: grows the cells
	if allocs := testing.AllocsPerRun(100, rebuild); allocs != 0 {
		t.Fatalf("CopyFrom + two CrashWithReceivers: %v allocs, want 0", allocs)
	}
	if got, want := scratch.String(), "sched{n=6 t=2 gsr=1 crash(p3@r2) crash(p5@r4)"; !strings.HasPrefix(got, want) {
		t.Fatalf("rebuilt schedule %s, want prefix %s", got, want)
	}

	// A prototype with a delayed fate and a stray one takes the
	// message-by-message path, and rebuilds without allocating too.
	proto.Delay(1, 2, 4, 3).Drop(1, 6, 6)
	rebuild()
	if allocs := testing.AllocsPerRun(100, rebuild); allocs != 0 {
		t.Fatalf("CopyFrom + two CrashWithReceivers past a delay: %v allocs, want 0", allocs)
	}
	if got, want := scratch.FateOf(2, 3, 4), (Fate{Kind: Lost}); got != want {
		t.Fatalf("rebuilt fate r2 p3->p4 = %v, want %v", got, want)
	}
}

// TestScheduledFromMask checks ScheduledFrom, which lets the simulator skip
// FateOf for a sender: set by SetFate, carried by CopyFrom and Clone.
func TestScheduledFromMask(t *testing.T) {
	s := New(4, 1)
	if s.ScheduledFrom(1, 1) {
		t.Fatal("empty schedule reports a scheduled sender")
	}
	s.Delay(2, 3, 1, 4)
	if !s.ScheduledFrom(2, 3) || s.ScheduledFrom(2, 1) || s.ScheduledFrom(1, 3) || s.ScheduledFrom(9, 3) {
		t.Fatal("mask does not match the single scheduled fate r2 p3->p1")
	}
	for _, c := range []*Schedule{s.Clone(), New(9, 2).CopyFrom(s)} {
		if !c.ScheduledFrom(2, 3) || c.FateOf(2, 3, 1).Kind != Delayed {
			t.Fatal("copy lost the sender mask")
		}
	}
	// A copy from a schedule without fates drops the mask.
	if New(4, 1).CopyFrom(New(4, 1)).ScheduledFrom(2, 3) {
		t.Fatal("CopyFrom kept a stale mask")
	}
	c := New(4, 1)
	c.Drop(2, 3, 1)
	if c.CopyFrom(New(4, 1)).ScheduledFrom(2, 3) {
		t.Fatal("CopyFrom kept the destination's old mask")
	}
	// Fates off the mask's grid are still found by lookup.
	off := New(4, 1)
	off.Drop(-1, 2, 3)
	off.Drop(2, 70, 3)
	if off.FateOf(-1, 2, 3).Kind != Lost || off.FateOf(2, 70, 3).Kind != Lost {
		t.Fatal("off-grid fate not found")
	}
}
