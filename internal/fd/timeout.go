package fd

import (
	"sync"
	"time"

	"indulgence/internal/chaos/clock"
	"indulgence/internal/metrics"
	"indulgence/internal/model"
)

// TimeoutDetector is the live runtime's unreliable failure detector for
// one hosted process: a peer is suspected when it has not been heard from
// within its current timeout of a round's start. It is process state, not
// instance state — every consensus instance the process runs consults
// and feeds the same detector, which indulgence makes safe: an indulgent
// algorithm's agreement and validity never depend on the detector being
// right, so sharing what it learned can only change when a round ends.
//
// A suspicion raised in one instance holds in every instance, so a
// crashed peer costs one timeout per observing process, not one per
// instance. Hearing a suspected peer — a frame from it in any instance —
// proves the suspicion false: the peer is trusted again and its timeout
// doubles, capped at 64× the base. That one rule also covers a restarted
// peer. Each peer whose delay stays below the cap is therefore falsely
// suspected only finitely often across the process's whole stream of
// instances — the ◇P behaviour the paper's ES model abstracts. Only a
// frame delivered to a live instance counts as heard: a peer whose every
// frame lands after its instance ended stays suspected.
//
// The detector measures elapsed time on an injected clock, so under the
// chaos harness's virtual clock suspicion timing is simulated-time exact.
// The round start is the caller's: each node passes its own to
// SuspectOverdue. Safe for concurrent use, and order-free within one
// instant of the clock, so instances racing through the same virtual
// instant cannot make a schedule depend on goroutine order: every read
// sees the suspicions as they stood when the instant began, a suspicion
// raised at an instant is not lifted by a frame heard at that instant,
// and one lifted at an instant is not raised again at it.
type TimeoutDetector struct {
	clk       clock.Clock
	mu        sync.Mutex
	base      time.Duration
	max       time.Duration
	timeouts  map[model.ProcessID]time.Duration
	suspected model.PIDSet // including the current instant's changes
	flipped   model.PIDSet // peers whose suspicion changed at instant at
	at        time.Time
	mEvents   *metrics.Counter
}

// NewTimeoutDetectorClock returns a detector on clk with the given
// initial per-process timeout.
func NewTimeoutDetectorClock(base time.Duration, clk clock.Clock) *TimeoutDetector {
	return &TimeoutDetector{
		clk:      clock.Or(clk),
		base:     base,
		max:      64 * base,
		timeouts: make(map[model.ProcessID]time.Duration),
	}
}

// Instrument attaches a suspicion-event counter: every trusted-to-
// suspected transition the detector raises also increments c. A nil
// counter (the uninstrumented default) costs nothing.
func (d *TimeoutDetector) Instrument(c *metrics.Counter) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.mEvents = c
}

// settledLocked returns the suspicion set as it stood when the current
// instant began, first forgetting the flips of any earlier instant.
func (d *TimeoutDetector) settledLocked() model.PIDSet {
	if now := d.clk.Now(); !now.Equal(d.at) {
		d.at, d.flipped = now, 0
	}
	return d.suspected ^ d.flipped
}

// SuspectOverdue suspects every process in 1..n — except self and the
// heard set — that was trusted when this instant began and whose timeout
// has expired since the round start since. It returns the peers it found
// so: each is one trusted-to-suspected transition, counted once in the
// instrument however many callers find it at the same instant, and
// credited to every one of them. The round loop calls it on its polling
// tick.
func (d *TimeoutDetector) SuspectOverdue(n int, self model.ProcessID, heard model.PIDSet, since time.Time) model.PIDSet {
	d.mu.Lock()
	defer d.mu.Unlock()
	settled := d.settledLocked()
	elapsed := d.at.Sub(since)
	var found model.PIDSet
	for q := model.ProcessID(1); int(q) <= n; q++ {
		if q == self || heard.Has(q) || settled.Has(q) || elapsed < d.timeoutLocked(q) {
			continue
		}
		found.Add(q)
		if !d.suspected.Has(q) {
			d.suspected.Add(q)
			d.flipped.Add(q)
			d.mEvents.Inc()
		}
	}
	return found
}

// TimeoutFor returns the current timeout for p.
func (d *TimeoutDetector) TimeoutFor(p model.ProcessID) time.Duration {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.timeoutLocked(p)
}

func (d *TimeoutDetector) timeoutLocked(p model.ProcessID) time.Duration {
	if t, ok := d.timeouts[p]; ok {
		return t
	}
	return d.base
}

// Heard records a message from p. If p was suspected when this instant
// began, the suspicion was false: p is trusted again and its timeout
// doubles.
func (d *TimeoutDetector) Heard(p model.ProcessID) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.settledLocked().Has(p) || d.flipped.Has(p) {
		return
	}
	d.suspected.Remove(p)
	d.flipped.Add(p)
	d.timeouts[p] = min(2*d.timeoutLocked(p), d.max)
}

// Suspected returns the suspicion set as it stood when the current
// instant began.
func (d *TimeoutDetector) Suspected() model.PIDSet {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.settledLocked()
}
