package clock

import (
	"context"
	"slices"
	"sync/atomic"
	"testing"
	"time"
)

// TestVirtualTimerOrder schedules events out of order and checks they
// fire in deterministic (time, registration) order.
func TestVirtualTimerOrder(t *testing.T) {
	v := NewVirtual()
	var got []int
	v.AfterFunc(30*time.Millisecond, func() { got = append(got, 3) })
	v.AfterFunc(10*time.Millisecond, func() { got = append(got, 1) })
	v.AfterFunc(20*time.Millisecond, func() { got = append(got, 2) })
	v.AfterFunc(10*time.Millisecond, func() { got = append(got, 11) }) // same instant: registration order

	start := v.Now()
	for v.Step() {
	}
	want := []int{1, 11, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("fired %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("fired %v, want %v", got, want)
		}
	}
	if d := v.Now().Sub(start); d != 30*time.Millisecond {
		t.Fatalf("clock advanced %v, want 30ms", d)
	}
}

// TestVirtualTimerStopReset exercises the Stop/Reset contract.
func TestVirtualTimerStopReset(t *testing.T) {
	v := NewVirtual()
	var fired atomic.Int32
	tm := v.AfterFunc(10*time.Millisecond, func() { fired.Add(1) })
	if !tm.Stop() {
		t.Fatal("Stop on a pending timer reported false")
	}
	if tm.Stop() {
		t.Fatal("second Stop reported true")
	}
	for v.Step() {
	}
	if fired.Load() != 0 {
		t.Fatal("stopped timer fired")
	}
	tm.Reset(5 * time.Millisecond)
	for v.Step() {
	}
	if fired.Load() != 1 {
		t.Fatalf("reset timer fired %d times, want 1", fired.Load())
	}
}

// TestVirtualTicker checks periodic ticks advance virtual time by the
// period and stop cleanly.
func TestVirtualTicker(t *testing.T) {
	v := NewVirtual()
	tick := v.NewTicker(5 * time.Millisecond)
	for i := 0; i < 3; i++ {
		if !v.Step() {
			t.Fatal("ticker ran out of events")
		}
		select {
		case <-tick.C():
		default:
			t.Fatalf("no tick after step %d", i)
		}
	}
	if d := v.Since(epoch); d != 15*time.Millisecond {
		t.Fatalf("3 ticks advanced %v, want 15ms", d)
	}
	tick.Stop()
	if v.Step() {
		t.Fatal("stopped ticker left live events")
	}
}

// TestVirtualSamplerStepsLast: a sampler tick fires in a Step of its
// own after every other event of its instant — a plain tick registered
// later and an event the instant's first Step schedules at the same
// instant included — and a Reset keeps the ticker a sampler. On the
// real clock NewSampler is a plain ticker.
func TestVirtualSamplerStepsLast(t *testing.T) {
	v := NewVirtual()
	var got []string
	sampler := NewSampler(v, 10*time.Millisecond)
	defer sampler.Stop()
	plain := v.NewTicker(10 * time.Millisecond)
	defer plain.Stop()
	v.AfterFunc(10*time.Millisecond, func() {
		got = append(got, "event")
		v.AfterFunc(0, func() { got = append(got, "event+0") })
	})
	read := func(name string, c <-chan time.Time) {
		select {
		case <-c:
			got = append(got, name)
		default:
		}
	}
	for step := 0; step < 3; step++ {
		if !v.Step() {
			t.Fatal("ran out of events")
		}
		read("plain", plain.C())
		read("sampler", sampler.C())
		got = append(got, "|")
	}
	want := []string{"event", "plain", "|", "event+0", "|", "sampler", "|"}
	if !slices.Equal(got, want) {
		t.Fatalf("steps fired %v, want %v", got, want)
	}
	if d := v.Since(epoch); d != 10*time.Millisecond {
		t.Fatalf("three steps advanced %v, want one instant at 10ms", d)
	}
	sampler.Reset(5 * time.Millisecond)
	plain.Reset(5 * time.Millisecond)
	got = nil
	for step := 0; step < 2; step++ {
		v.Step()
		read("plain", plain.C())
		read("sampler", sampler.C())
	}
	if want := []string{"plain", "sampler"}; !slices.Equal(got, want) {
		t.Fatalf("after Reset: %v, want %v", got, want)
	}
	rs := NewSampler(Real{}, time.Hour)
	defer rs.Stop()
	if _, ok := rs.(realTicker); !ok {
		t.Fatal("NewSampler on the real clock is not its ticker")
	}
}

// TestVirtualTickerReset: a Reset mid-period restarts the period at the
// Reset instant, and a tick already in the channel is not received after
// it.
func TestVirtualTickerReset(t *testing.T) {
	v := NewVirtual()
	tick := v.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	v.AfterFunc(13*time.Millisecond, func() {})
	v.Step() // the tick at 10ms, left in the channel
	v.Step() // now 13ms
	tick.Reset(5 * time.Millisecond)
	select {
	case at := <-tick.C():
		t.Fatalf("received the pre-Reset tick of %v", at.Sub(epoch))
	default:
	}
	for _, want := range []time.Duration{18, 23, 28} {
		if !v.Step() {
			t.Fatal("ticker ran out of events")
		}
		select {
		case at := <-tick.C():
			if got := at.Sub(epoch); got != want*time.Millisecond {
				t.Fatalf("tick at %v, want %v", got, want*time.Millisecond)
			}
		default:
			t.Fatalf("no tick at %vms", want)
		}
	}
	if n := v.PendingEvents(); n != 1 {
		t.Fatalf("%d live events, want 1", n)
	}
}

// TestVirtualTickerResetRacesStep: a tick firing inside Step while
// another goroutine resets the ticker must neither send nor reschedule,
// so however the two interleave one live event remains.
func TestVirtualTickerResetRacesStep(t *testing.T) {
	v := NewVirtual()
	tick := v.NewTicker(time.Millisecond)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 2000; i++ {
			tick.Reset(time.Millisecond)
		}
	}()
	for stepping := true; stepping; {
		select {
		case <-done:
			stepping = false
		default:
			v.Step()
		}
	}
	if n := v.PendingEvents(); n != 1 {
		t.Fatalf("%d live events after racing Resets, want 1", n)
	}
	tick.Stop()
	if n := v.PendingEvents(); n != 0 {
		t.Fatalf("%d live events after Stop, want 0", n)
	}
}

// TestRealTickerReset: on the wall clock too, no tick from before a Reset
// is received after it.
func TestRealTickerReset(t *testing.T) {
	tick := Real{}.NewTicker(time.Millisecond)
	defer tick.Stop()
	time.Sleep(5 * time.Millisecond) // a tick is due
	tick.Reset(time.Hour)
	select {
	case at := <-tick.C():
		t.Fatalf("received a tick of %v after Reset", at)
	case <-time.After(20 * time.Millisecond):
	}
}

// TestVirtualChannelTimer checks NewTimer delivers the fire time on C.
func TestVirtualChannelTimer(t *testing.T) {
	v := NewVirtual()
	tm := v.NewTimer(7 * time.Millisecond)
	if !v.Step() {
		t.Fatal("no event")
	}
	select {
	case at := <-tm.C():
		if want := epoch.Add(7 * time.Millisecond); !at.Equal(want) {
			t.Fatalf("fired at %v, want %v", at, want)
		}
	default:
		t.Fatal("timer channel empty after step")
	}
}

// TestVirtualRunWakesBlockedGoroutine is the shape every harness run
// has: a goroutine blocked on a clock timer makes progress only when
// the driver steps, and Run returns once it signals done.
func TestVirtualRunWakesBlockedGoroutine(t *testing.T) {
	v := NewVirtual()
	done := make(chan struct{})
	tm := v.NewTimer(50 * time.Millisecond)
	go func() {
		<-tm.C()
		close(done)
	}()
	if !v.Run(done, func() bool { return false }) {
		t.Fatal("Run reported wedged")
	}
}

// TestVirtualRunWedge: done never closes — Run must report the wedge
// instead of spinning, both when the queue is dry and when the caller's
// give-up predicate (a virtual cap) fires while a ticker keeps it alive.
func TestVirtualRunWedge(t *testing.T) {
	v := NewVirtual()
	if v.Run(make(chan struct{}), func() bool { return false }) {
		t.Fatal("Run reported success with nothing scheduled")
	}
	tk := v.NewTicker(100 * time.Millisecond)
	defer tk.Stop()
	start := v.Now()
	if v.Run(make(chan struct{}), func() bool { return v.Since(start) > time.Second }) {
		t.Fatal("Run reported success past the virtual cap")
	}
	if got := v.Since(start); got <= time.Second || got > time.Second+100*time.Millisecond {
		t.Fatalf("gave up at %v virtual, want just past the 1s cap", got)
	}
}

// TestVirtualIdleCheck: the clock must not advance while a registered
// idle check reports in-flight work.
func TestVirtualIdleCheck(t *testing.T) {
	v := NewVirtual()
	var pending atomic.Int64
	pending.Store(1)
	v.RegisterIdle(func() bool { return pending.Load() == 0 })
	go func() {
		time.Sleep(10 * time.Millisecond) // real time: simulate a slow consumer
		pending.Store(0)
	}()
	start := time.Now()
	v.Settle()
	if time.Since(start) < 5*time.Millisecond {
		t.Fatal("Settle returned before the idle check passed")
	}
}

// TestWithTimeoutVirtual: the deadline helper cancels the context at
// the virtual deadline, and cancel stops the timer.
func TestWithTimeoutVirtual(t *testing.T) {
	v := NewVirtual()
	ctx, cancel := WithTimeout(context.Background(), v, 20*time.Millisecond)
	defer cancel()
	if ctx.Err() != nil {
		t.Fatal("context dead before deadline")
	}
	for v.Step() {
	}
	<-ctx.Done()

	ctx2, cancel2 := WithTimeout(context.Background(), v, 20*time.Millisecond)
	cancel2()
	if ctx2.Err() == nil {
		t.Fatal("cancel did not cancel")
	}
	if n := v.PendingEvents(); n != 0 {
		t.Fatalf("%d events leaked after cancel", n)
	}
}

// TestWithTimeoutReal: the Real path keeps context.DeadlineExceeded.
func TestWithTimeoutReal(t *testing.T) {
	ctx, cancel := WithTimeout(context.Background(), Real{}, time.Millisecond)
	defer cancel()
	<-ctx.Done()
	if ctx.Err() != context.DeadlineExceeded {
		t.Fatalf("err = %v, want DeadlineExceeded", ctx.Err())
	}
}

// TestOr covers the nil default.
func TestOr(t *testing.T) {
	if _, ok := Or(nil).(Real); !ok {
		t.Fatal("Or(nil) is not Real")
	}
	v := NewVirtual()
	if Or(v) != Clock(v) {
		t.Fatal("Or(v) did not pass through")
	}
}
