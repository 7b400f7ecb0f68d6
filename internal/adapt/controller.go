package adapt

import "time"

// Observation is one control-window snapshot of the service, assembled
// by the Plane from the window's accumulated instance outcomes plus the
// queue/slot occupancy sampled at the tick.
type Observation struct {
	// Decided is the number of instances decided in the window.
	Decided int
	// Latency is the mean end-to-end proposal latency (enqueue to
	// resolution) over the window's decided proposals; 0 when Decided
	// is 0.
	Latency time.Duration
	// FillPercent is the mean fill of batches cut in the window as a
	// percentage of the effective batch limit at the cut (0 when no
	// batch was cut).
	FillPercent int
	// Failures is the number of instances that missed their decision in
	// the window.
	Failures int
	// QueueLen and QueueCap describe the intake backlog at the tick.
	QueueLen, QueueCap int
	// Busy and Slots describe instance-slot occupancy at the tick.
	Busy, Slots int
	// Elapsed is the window's wall-clock duration (under the injected
	// clock), carried for the decision log.
	Elapsed time.Duration
}

// pressured reports a material intake backlog: a quarter or more of the
// queue is waiting for an instance.
func (o Observation) pressured() bool {
	return o.QueueCap > 0 && o.QueueLen*4 >= o.QueueCap
}

// working reports meaningful concurrent load: a quarter or more of the
// instance slots busy. It is the discriminator between "lone proposals
// on a relaxed service" (trim the linger, nobody should wait) and
// "under-full cuts while instances stream" (grow the linger — the cuts
// are outpacing coalescing).
func (o Observation) working() bool {
	return o.Slots > 0 && o.Busy*4 >= o.Slots
}

// idle reports a window in which nothing happened: nothing queued,
// nothing running, nothing cut, nothing decided. In-flight instances
// count as happening — a slow instance spanning several windows must
// not read as idleness and decay the linger the working rule just grew.
func (o Observation) idle() bool {
	return o.QueueLen == 0 && o.Busy == 0 && o.Decided == 0 && o.FillPercent == 0
}

// Setting is the controller's actuation: the effective batch limit and
// linger the service's batcher applies from this tick on.
type Setting struct {
	// Batch is the effective batch-size limit.
	Batch int
	// Linger is the effective under-full batch wait.
	Linger time.Duration
}

// Controller is the AIMD batch/linger tuner. It is a pure state
// machine: Tick's output depends only on the constructor configuration,
// the prior ticks and the observation — no clock, no randomness — so
// scripted observation sequences reproduce exact trajectories. Not safe
// for concurrent use; the Plane serializes access.
type Controller struct {
	cfg     Config
	setting Setting
	ewma    time.Duration // EWMA of observed proposal latency
	lowFill int           // consecutive low-fill windows (decay hysteresis)
}

// NewController returns a controller starting from the given setting,
// clamped into cfg's bounds. cfg must already have defaults applied
// when used outside the Plane (Plane applies them).
func NewController(cfg Config, start Setting) *Controller {
	cfg = cfg.withDefaults()
	start.Batch = clampInt(start.Batch, cfg.MinBatch, cfg.MaxBatch)
	start.Linger = clampDur(start.Linger, cfg.MinLinger, cfg.MaxLinger)
	return &Controller{cfg: cfg, setting: start}
}

// Setting returns the current effective setting.
func (c *Controller) Setting() Setting { return c.setting }

// EWMA returns the controller's decision-latency baseline (0 until
// the first decided window) — the reference the linger law compares
// fresh latencies against, journaled in decision-trace records.
func (c *Controller) EWMA() time.Duration { return c.ewma }

// Tick folds one observation into the controller state and returns the
// (possibly unchanged) setting, plus whether this tick changed it.
//
// The law. The two knobs have asymmetric costs — a too-small batch
// costs queueing delay under load, while a too-large one costs nothing
// at light load (under-full cuts are linger-triggered, so nobody waits
// for a batch to fill) and only widens failure fate-sharing; the linger
// is the knob that directly inflates latency. The batch therefore
// follows demand and the linger follows latency:
//
//   - Batch, additive increase: full batches cut in the window (mean
//     fill ≥ 90%: cuts were count-triggered, so demand saturates the
//     current limit), or an intake backlog (≥ 1/4 of the queue — rare,
//     since the batcher drains intake eagerly, and decisive), grow the
//     batch by batchStep. A deeper batch drains a burst in fewer instances,
//     each still paying its fixed round price, so queueing delay falls.
//   - Batch, multiplicative decrease: an instance failure halves the
//     batch (and the linger) — fate-sharing is the one cost deep
//     batches do carry, so failures shrink exposure fast.
//   - Batch decay: persistently low fill (< 25% for three consecutive
//     windows — one burst-tail partial batch must not undo the growth
//     the burst earned) on a relaxed service walks the batch down by
//     1/4 per further window, re-centering the fill signal so the next
//     burst is measured against honest headroom.
//   - Linger: a mean latency more than 50% over the EWMA baseline
//     halves it (whatever else is slow, waiting longer to cut cannot
//     help); an idle window decays it by 1/4 toward the floor (a lone
//     proposal must not wait out a burst-tuned window); under-full cuts
//     while instances stream (a quarter of the slots busy or more)
//     double it plus lingerStep — the cuts are outpacing coalescing,
//     filling batches is free when rounds dominate, and the fill < 90%
//     gate makes the growth self-limiting (at 90% the cuts are
//     count-triggered and the batch AI takes over); under-full cuts on
//     a relaxed service decay it by 1/4.
func (c *Controller) Tick(obs Observation) (Setting, bool) {
	prev := c.setting
	switch {
	case obs.Failures > 0:
		// Failures preempt growth: a pressured window with failing
		// instances must shrink fate-sharing exposure, not widen it.
		c.lowFill = 0
		c.setting.Batch = clampInt(c.setting.Batch/2, c.cfg.MinBatch, c.cfg.MaxBatch)
		c.setting.Linger = clampDur(c.setting.Linger/2, c.cfg.MinLinger, c.cfg.MaxLinger)
	case obs.pressured() || obs.FillPercent >= 90:
		c.lowFill = 0
		c.setting.Batch = clampInt(c.setting.Batch+batchStep, c.cfg.MinBatch, c.cfg.MaxBatch)
	case obs.FillPercent > 0 && obs.FillPercent < 25 && !obs.working():
		c.lowFill++
		if c.lowFill >= 3 {
			// The decrement floors at 1 so the walk-down cannot stall
			// above MinBatch on integer division (2 - 2/4 == 2).
			c.setting.Batch = clampInt(c.setting.Batch-max(c.setting.Batch/4, 1), c.cfg.MinBatch, c.cfg.MaxBatch)
		}
	case obs.FillPercent >= 25:
		c.lowFill = 0
	}
	switch {
	case obs.Failures > 0:
		// Linger already halved above.
	case obs.Decided > 0 && c.ewma > 0 && obs.Latency > c.ewma+c.ewma/2:
		c.setting.Linger = clampDur(c.setting.Linger/2, c.cfg.MinLinger, c.cfg.MaxLinger)
	case obs.idle():
		c.setting.Linger = clampDur(c.setting.Linger*3/4, c.cfg.MinLinger, c.cfg.MaxLinger)
	case obs.FillPercent > 0 && obs.FillPercent < 90 && obs.working():
		c.setting.Linger = clampDur(c.setting.Linger*2+lingerStep, c.cfg.MinLinger, c.cfg.MaxLinger)
	case obs.FillPercent > 0 && obs.FillPercent < 50 && !obs.pressured():
		c.setting.Linger = clampDur(c.setting.Linger*3/4, c.cfg.MinLinger, c.cfg.MaxLinger)
	}
	if obs.Decided > 0 {
		if c.ewma == 0 {
			c.ewma = obs.Latency
		} else {
			c.ewma = (3*c.ewma + obs.Latency) / 4
		}
	}
	return c.setting, c.setting != prev
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func clampDur(v, lo, hi time.Duration) time.Duration {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
