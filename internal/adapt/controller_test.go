package adapt_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"indulgence/internal/adapt"
	"indulgence/internal/core"
)

// TestControllerTrajectory scripts an entire load episode — idle, burst,
// regression, recovery — and pins the exact setting after every tick.
// The controller is a pure state machine, so this trajectory is the
// behaviour, not a sample of it.
func TestControllerTrajectory(t *testing.T) {
	cfg := adapt.Config{
		MinBatch: 1, MaxBatch: 32,
		MinLinger: 0, MaxLinger: 4 * time.Millisecond,
	}
	c := adapt.NewController(cfg, adapt.Setting{Batch: 8, Linger: 2 * time.Millisecond})

	steps := []struct {
		name string
		obs  adapt.Observation
		want adapt.Setting
	}{
		// Idle ticks decay the linger toward the floor; batch holds.
		{"idle-1", adapt.Observation{QueueCap: 64, Slots: 16},
			adapt.Setting{Batch: 8, Linger: 1500 * time.Microsecond}},
		{"idle-2", adapt.Observation{QueueCap: 64, Slots: 16},
			adapt.Setting{Batch: 8, Linger: 1125 * time.Microsecond}},
		// A burst fills the queue: additive batch increase per tick.
		{"burst-1", adapt.Observation{Decided: 2, Latency: time.Millisecond, FillPercent: 100,
			QueueLen: 40, QueueCap: 64, Busy: 16, Slots: 16},
			adapt.Setting{Batch: 12, Linger: 1125 * time.Microsecond}},
		{"burst-2", adapt.Observation{Decided: 4, Latency: time.Millisecond, FillPercent: 100,
			QueueLen: 48, QueueCap: 64, Busy: 16, Slots: 16},
			adapt.Setting{Batch: 16, Linger: 1125 * time.Microsecond}},
		// Full batches keep growing the batch even after the queue
		// drains: count-triggered cuts mean the limit is the bottleneck.
		{"full-cuts", adapt.Observation{Decided: 4, Latency: time.Millisecond, FillPercent: 95,
			QueueLen: 2, QueueCap: 64, Busy: 4, Slots: 16},
			adapt.Setting{Batch: 20, Linger: 1125 * time.Microsecond}},
		// A latency regression (> 1.5x the EWMA of ~1ms) halves the
		// linger — the knob that directly inflates latency — while the
		// batch, whose only downward cost is fate-sharing, holds.
		{"regression", adapt.Observation{Decided: 2, Latency: 10 * time.Millisecond, FillPercent: 80,
			QueueLen: 0, QueueCap: 64, Busy: 4, Slots: 16},
			adapt.Setting{Batch: 20, Linger: 562500 * time.Nanosecond}},
		// Under-full cuts while the slots are the bottleneck grow the
		// linger additively so batches fill while rounds dominate.
		{"underfull-busy", adapt.Observation{Decided: 2, Latency: 3 * time.Millisecond, FillPercent: 30,
			QueueLen: 0, QueueCap: 64, Busy: 16, Slots: 16},
			adapt.Setting{Batch: 20, Linger: 1375 * time.Microsecond}},
		// A single low-fill window (a burst tail) decays the linger but
		// NOT the batch — decay hysteresis needs three in a row.
		{"underfull-relaxed-1", adapt.Observation{Decided: 1, Latency: 3 * time.Millisecond, FillPercent: 20,
			QueueLen: 0, QueueCap: 64, Busy: 2, Slots: 16},
			adapt.Setting{Batch: 20, Linger: 1031250 * time.Nanosecond}},
		{"underfull-relaxed-2", adapt.Observation{Decided: 1, Latency: 3 * time.Millisecond, FillPercent: 20,
			QueueLen: 0, QueueCap: 64, Busy: 2, Slots: 16},
			adapt.Setting{Batch: 20, Linger: 773437 * time.Nanosecond}},
		// The third consecutive low-fill window starts walking the batch
		// down, re-centering the fill signal.
		{"underfull-relaxed-3", adapt.Observation{Decided: 1, Latency: 3 * time.Millisecond, FillPercent: 20,
			QueueLen: 0, QueueCap: 64, Busy: 2, Slots: 16},
			adapt.Setting{Batch: 15, Linger: 580077 * time.Nanosecond}},
		// An instance failure is the one signal that shrinks the batch
		// multiplicatively: fate-sharing exposure halves on the spot.
		{"failure", adapt.Observation{Decided: 1, Failures: 1, Latency: 3 * time.Millisecond,
			FillPercent: 60, QueueLen: 0, QueueCap: 64, Busy: 4, Slots: 16},
			adapt.Setting{Batch: 7, Linger: 290038 * time.Nanosecond}},
		// Failures preempt the additive increase: a pressured, full-fill
		// window that also failed instances must still shrink, not grow.
		{"failure-under-pressure", adapt.Observation{Decided: 1, Failures: 1, Latency: 3 * time.Millisecond,
			FillPercent: 100, QueueLen: 60, QueueCap: 64, Busy: 16, Slots: 16},
			adapt.Setting{Batch: 3, Linger: 145019 * time.Nanosecond}},
	}
	prev, adjusted := c.Setting(), 0
	for i, st := range steps {
		got, changed := c.Tick(st.obs)
		if got != st.want {
			t.Fatalf("step %d (%s): setting = %+v, want %+v", i, st.name, got, st.want)
		}
		if changed != (got != prev) {
			t.Fatalf("step %d (%s): changed = %v moving %+v to %+v", i, st.name, changed, prev, got)
		}
		if changed {
			adjusted++
		}
		prev = got
	}
	if adjusted == 0 {
		t.Fatal("no tick reported an adjustment")
	}
}

// TestControllerDeterminism replays one observation script twice and
// requires identical trajectories and adjustment counts.
func TestControllerDeterminism(t *testing.T) {
	script := []adapt.Observation{
		{QueueCap: 64, Slots: 8},
		{Decided: 3, Latency: 2 * time.Millisecond, FillPercent: 100, QueueLen: 60, QueueCap: 64, Busy: 8, Slots: 8},
		{Decided: 3, Latency: 9 * time.Millisecond, FillPercent: 70, QueueLen: 0, QueueCap: 64, Busy: 1, Slots: 8},
		{Decided: 1, Latency: time.Millisecond, FillPercent: 10, QueueLen: 0, QueueCap: 64, Busy: 1, Slots: 8},
		{QueueCap: 64, Slots: 8},
	}
	run := func() []adapt.Setting {
		c := adapt.NewController(adapt.Config{}, adapt.Setting{Batch: 8, Linger: 2 * time.Millisecond})
		var out []adapt.Setting
		for _, obs := range script {
			s, _ := c.Tick(obs)
			out = append(out, s)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("tick %d diverged: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestControllerBounds drives the controller hard in both directions and
// checks it never leaves its floor/ceiling envelope.
func TestControllerBounds(t *testing.T) {
	cfg := adapt.Config{MinBatch: 2, MaxBatch: 16, MinLinger: 100 * time.Microsecond, MaxLinger: time.Millisecond}
	c := adapt.NewController(cfg, adapt.Setting{Batch: 2, Linger: 100 * time.Microsecond})
	pressure := adapt.Observation{Decided: 1, Latency: time.Millisecond, FillPercent: 100,
		QueueLen: 64, QueueCap: 64, Busy: 8, Slots: 8}
	for i := 0; i < 50; i++ {
		s, _ := c.Tick(pressure)
		if s.Batch < 2 || s.Batch > 16 || s.Linger < 100*time.Microsecond || s.Linger > time.Millisecond {
			t.Fatalf("tick %d: setting %+v outside bounds", i, s)
		}
	}
	if s := c.Setting(); s.Batch != 16 {
		t.Fatalf("sustained pressure should pin the ceiling, got %+v", s)
	}
	// Now collapse: failing instances with huge latency.
	collapse := adapt.Observation{Decided: 1, Failures: 1, Latency: time.Second,
		QueueCap: 64, Slots: 8, FillPercent: 60}
	for i := 0; i < 50; i++ {
		s, _ := c.Tick(collapse)
		if s.Batch < 2 || s.Linger < 100*time.Microsecond {
			t.Fatalf("tick %d: setting %+v under floor", i, s)
		}
	}
	if s := c.Setting(); s.Batch != 2 || s.Linger != 100*time.Microsecond {
		t.Fatalf("sustained failures should pin the floor, got %+v", s)
	}
}

// TestPlaneVirtualClock runs a Plane under a fixed virtual clock and a
// captured log, asserting the decision log is reproduced byte-exactly —
// the package's determinism contract end to end.
func TestPlaneVirtualClock(t *testing.T) {
	run := func() string {
		var b strings.Builder
		now := time.Unix(0, 0)
		cfg := adapt.Config{
			Interval: 5 * time.Millisecond,
			Logf:     func(f string, a ...any) { fmt.Fprintf(&b, f+"\n", a...) },
			Now:      func() time.Time { now = now.Add(5 * time.Millisecond); return now },
		}
		p := adapt.NewPlane(cfg, adapt.Choice{Name: core.AtPlus2Name}, adapt.Setting{Batch: 8, Linger: 2 * time.Millisecond}, 4, 1)
		p.ObserveCut(100)
		p.ObserveDecision([]time.Duration{time.Millisecond, 3 * time.Millisecond}, 0)
		p.Tick(32, 64, 8, 8)
		p.Tick(0, 64, 0, 8)
		p.Tick(0, 64, 0, 8)
		return b.String()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("virtual-clock log not reproducible:\n%q\nvs\n%q", a, b)
	}
	if !strings.Contains(a, "batch=12") {
		t.Fatalf("expected a batch adjustment in the log, got:\n%s", a)
	}
	if !strings.Contains(a, "window 5ms") {
		t.Fatalf("expected virtual-clock window durations in the log, got:\n%s", a)
	}
}

// TestPlaneCeilingStretchesToStart: a static configuration above the
// controller's default ceilings must become a larger envelope, not a
// silent clamp — the adaptive service starts exactly where its static
// twin stands.
func TestPlaneCeilingStretchesToStart(t *testing.T) {
	p := adapt.NewPlane(adapt.Config{MaxBatch: 64, MaxLinger: 8 * time.Millisecond}, adapt.Choice{},
		adapt.Setting{Batch: 128, Linger: 20 * time.Millisecond}, 4, 1)
	if p.BatchLimit() != 128 || p.Linger() != 20*time.Millisecond {
		t.Fatalf("start setting clamped: batch %d linger %v", p.BatchLimit(), p.Linger())
	}
	if p.BatchCeiling() != 128 {
		t.Fatalf("ceiling %d does not cover the start batch", p.BatchCeiling())
	}
}

// TestPlaneAdmission exercises the shedding hysteresis: consecutive
// saturated ticks arm it, a drained queue disarms it.
func TestPlaneAdmission(t *testing.T) {
	p := adapt.NewPlane(adapt.Config{AdmitHigh: 0.9, AdmitLow: 0.5, AdmitTicks: 2},
		adapt.Choice{}, adapt.Setting{Batch: 8, Linger: time.Millisecond}, 4, 1)
	if p.AdmitClass(0) != nil {
		t.Fatal("fresh plane must admit")
	}
	p.Tick(60, 64, 8, 8) // one hot tick: not yet
	if p.AdmitClass(0) != nil {
		t.Fatal("one saturated tick must not shed")
	}
	p.Tick(60, 64, 8, 8) // second consecutive: shed
	if p.AdmitClass(0) == nil {
		t.Fatal("two saturated ticks must shed")
	}
	p.Tick(40, 64, 8, 8) // between low and high: still shedding
	if p.AdmitClass(0) == nil {
		t.Fatal("hysteresis must hold between the marks")
	}
	p.Tick(10, 64, 2, 8) // at/below low water: disarm
	if p.AdmitClass(0) != nil {
		t.Fatal("drained queue must disarm shedding")
	}
	// An interrupted hot streak must not accumulate.
	p.Tick(60, 64, 8, 8)
	p.Tick(40, 64, 8, 8)
	p.Tick(60, 64, 8, 8)
	if p.AdmitClass(0) != nil {
		t.Fatal("non-consecutive saturated ticks must not shed")
	}
}

// TestPlaneAdmissionClasses extends TestPlaneAdmission to SLO-classed
// admission: under saturation the classes must shed strictly
// lowest-first (one per tick, staggered by the per-class arm counts),
// hysteresis must disarm them per class highest-first as the queue
// drains, every refusal must carry its class's retry budget, and the
// overload counters must split per class.
func TestPlaneAdmissionClasses(t *testing.T) {
	p := adapt.NewPlane(adapt.Config{
		AdmitHigh: 0.9, AdmitLow: 0.5, AdmitTop: 0.98, AdmitTicks: 2,
		Classes: 3, Interval: 5 * time.Millisecond,
	}, adapt.Choice{}, adapt.Setting{Batch: 8, Linger: time.Millisecond}, 4, 1)

	shedState := func() [3]bool {
		var s [3]bool
		for c := 0; c < 3; c++ {
			s[c] = p.AdmitClass(c) != nil
		}
		return s
	}
	// Saturation: classes arm lowest-first, one tick apart.
	steps := []struct {
		queue int
		want  [3]bool // shed state after the tick, per class
		note  string
	}{
		{100, [3]bool{false, false, false}, "one hot tick arms nothing"},
		{100, [3]bool{true, false, false}, "class 0 sheds first"},
		{100, [3]bool{true, true, false}, "class 1 sheds one tick later"},
		{100, [3]bool{true, true, true}, "class 2 sheds last"},
		// Drain: classes disarm highest-first as occupancy falls
		// through their nested low-water marks.
		{70, [3]bool{true, true, false}, "class 2 disarms first on drain"},
		{60, [3]bool{true, false, false}, "class 1 disarms next"},
		{40, [3]bool{false, false, false}, "class 0 disarms last"},
	}
	for i, step := range steps {
		p.Tick(step.queue, 100, 8, 8)
		if got := shedState(); got != step.want {
			t.Fatalf("step %d (%s): shed state %v, want %v", i, step.note, got, step.want)
		}
	}

	// Refusals carry the class's identity and budget and unwrap to
	// ErrOverload.
	p.Tick(100, 100, 8, 8)
	p.Tick(100, 100, 8, 8)
	p.Tick(100, 100, 8, 8)
	oe := p.AdmitClass(1)
	if oe == nil {
		t.Fatal("class 1 must be shed again after re-arming")
	}
	if oe.Class != 1 || oe.Budget != 3+1 || oe.RetryAfter != 10*time.Millisecond {
		t.Fatalf("refusal %+v: want class 1, budget 4, retry 10ms", oe)
	}
	if !errors.Is(oe, adapt.ErrOverload) {
		t.Fatal("OverloadError must unwrap to ErrOverload")
	}

	// Overload counters split per class. shedState probed each class
	// once per step above; recount from a known point instead.
	st := p.Snapshot()
	if len(st.OverloadsByClass) != 3 || len(st.SheddingByClass) != 3 {
		t.Fatalf("per-class stats sized %d/%d, want 3/3",
			len(st.OverloadsByClass), len(st.SheddingByClass))
	}
	before := st.OverloadsByClass
	for i := 0; i < 5; i++ {
		p.AdmitClass(0)
	}
	p.AdmitClass(1)
	after := p.Snapshot().OverloadsByClass
	if after[0]-before[0] != 5 || after[1]-before[1] != 1 || after[2] != before[2] {
		t.Fatalf("overloads by class %v -> %v: want +5/+1/+0", before, after)
	}
	if want := [3]bool{true, true, false}; !st.SheddingByClass[0] || !st.SheddingByClass[1] || st.SheddingByClass[2] != want[2] {
		t.Fatalf("snapshot shedding by class %v", st.SheddingByClass)
	}
}
