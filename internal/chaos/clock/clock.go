// Package clock abstracts time for the live stack. Every component of
// the service path that waits — fd timeout detectors, service lingers
// and instance deadlines, memory-hub delivery delays — takes a Clock
// instead of calling the time package directly, so the same code runs
// on wall time in production (Real) and on simulated time under the
// chaos harness (Virtual, a discrete-event scheduler). The package
// sits below transport and fd in the dependency order: it imports only
// the standard library, so any layer may depend on it.
package clock

import (
	"context"
	"time"
)

// Timer is the clock's analogue of time.Timer: it fires once on C
// (channel timers) or runs a function (AfterFunc timers) when its
// duration elapses on the owning clock.
type Timer interface {
	// C returns the firing channel. It is nil for AfterFunc timers.
	C() <-chan time.Time
	// Stop prevents the timer from firing, reporting whether it was
	// still pending. Like time.Timer.Stop it does not drain C.
	Stop() bool
	// Reset re-arms the timer for d from now, reporting whether it was
	// still pending. Callers follow the time.Timer discipline: Stop and
	// drain before Reset.
	Reset(d time.Duration) bool
}

// Ticker is the clock's analogue of time.Ticker. Ticks are dropped,
// never queued, when the receiver lags.
type Ticker interface {
	C() <-chan time.Time
	Stop()
	// Reset re-arms the ticker, stopped or not, with period d (d must be
	// positive) from now: the next tick is due at now+d. No tick from
	// before the Reset is received after it returns, so one ticker can
	// pace a loop whose every pass restarts the period.
	Reset(d time.Duration)
}

// Clock is the time source of the live stack.
type Clock interface {
	// Now returns the current time on this clock.
	Now() time.Time
	// Since returns the time elapsed on this clock since t.
	Since(t time.Time) time.Duration
	// NewTimer returns a timer that fires on its channel after d.
	NewTimer(d time.Duration) Timer
	// AfterFunc returns a timer that runs f after d. Under a virtual
	// clock f runs synchronously on the clock's Step driver, so it must
	// not block indefinitely.
	AfterFunc(d time.Duration, f func()) Timer
	// NewTicker returns a ticker with period d (d must be positive).
	NewTicker(d time.Duration) Ticker
}

// IdleRegistry is implemented by clocks that must not advance past
// work still in flight at the current instant. Components with
// externally invisible queues (the memory hub's mailboxes) register an
// idle check; a Virtual clock only advances when every check passes.
type IdleRegistry interface {
	RegisterIdle(func() bool)
}

// NewSampler returns a ticker with period d for a loop that samples
// state other goroutines change, such as a control loop reading queue
// depths. On a Virtual clock its ticks fire in a Step of their own,
// after every other event of their instant has fired and the system has
// settled, so a sample reads the instant's settled state whatever order
// the goroutines ran in. On any other clock it is NewTicker.
func NewSampler(c Clock, d time.Duration) Ticker {
	if v, ok := c.(*Virtual); ok {
		return v.newTicker(d, true)
	}
	return c.NewTicker(d)
}

// WithTimeout is context.WithTimeout on an arbitrary clock. On a Real
// clock it defers to the context package (callers keep genuine
// DeadlineExceeded errors); on any other clock the deadline is a clock
// timer cancelling the context, so expiry surfaces as context.Canceled.
func WithTimeout(parent context.Context, c Clock, d time.Duration) (context.Context, context.CancelFunc) {
	if _, ok := c.(Real); ok {
		return context.WithTimeout(parent, d)
	}
	ctx, cancel := context.WithCancel(parent)
	t := c.AfterFunc(d, cancel)
	return ctx, func() {
		t.Stop()
		cancel()
	}
}

// Real is the wall-clock implementation: a thin veneer over the time
// package. The zero value is ready to use.
type Real struct{}

var _ Clock = Real{}

// Now implements Clock.
func (Real) Now() time.Time { return time.Now() }

// Since implements Clock.
func (Real) Since(t time.Time) time.Duration { return time.Since(t) }

// NewTimer implements Clock.
func (Real) NewTimer(d time.Duration) Timer { return realTimer{time.NewTimer(d)} }

// AfterFunc implements Clock.
func (Real) AfterFunc(d time.Duration, f func()) Timer { return realTimer{time.AfterFunc(d, f)} }

// NewTicker implements Clock.
func (Real) NewTicker(d time.Duration) Ticker { return realTicker{time.NewTicker(d)} }

type realTimer struct{ t *time.Timer }

func (rt realTimer) C() <-chan time.Time        { return rt.t.C }
func (rt realTimer) Stop() bool                 { return rt.t.Stop() }
func (rt realTimer) Reset(d time.Duration) bool { return rt.t.Reset(d) }

// realTicker's Reset is time.Ticker.Reset, whose no-stale-tick guarantee
// holds from go 1.23 on (synchronous timer channels).
type realTicker struct{ t *time.Ticker }

func (rt realTicker) C() <-chan time.Time   { return rt.t.C }
func (rt realTicker) Stop()                 { rt.t.Stop() }
func (rt realTicker) Reset(d time.Duration) { rt.t.Reset(d) }

// Or returns c, or Real when c is nil — the one-liner every Config
// default uses.
func Or(c Clock) Clock {
	if c == nil {
		return Real{}
	}
	return c
}
