package adapt

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"indulgence/internal/metrics"
)

// Stats is a point-in-time snapshot of the control plane; its counters
// are reads of the plane's registry instruments.
type Stats struct {
	// Batch and Linger are the current effective setting.
	Batch int
	// Linger is the current effective under-full batch wait.
	Linger time.Duration
	// Adjustments counts controller ticks that changed the setting.
	Adjustments int
	// Ticks counts controller ticks run.
	Ticks int
	// Shedding reports whether admission control is currently shedding
	// (any class; class 0 sheds first, so this is class 0's state).
	Shedding bool
	// SheddingByClass is each class's current shedding state (length
	// Config.Classes).
	SheddingByClass []bool
	// OverloadsByClass counts proposals denied by AdmitClass per class
	// (length Config.Classes).
	OverloadsByClass []int
	// Transitions counts selector level changes.
	Transitions int
}

// Plane is the assembled control plane one service embeds: the
// controller, the optional selector and the admission gate behind one
// lock, with the actuated setting published through the mBatch/mLinger
// gauges (atomics) so the batcher's and Propose's hot paths never
// contend with a tick.
type Plane struct {
	cfg    Config
	static Choice

	// shedMask is the per-class shedding state: bit c set means class c
	// is currently shed. The invariant bit c+1 ⇒ bit c (lower classes
	// shed first) is maintained by Tick.
	shedMask atomic.Uint32

	mu         sync.Mutex
	ctl        *Controller
	sel        *Selector // nil unless SelectAlgorithms
	hotTicks   [MaxClasses]int
	suspicions int // cumulative Outcome.Suspicions across decided instances
	lastTick   time.Time
	// Window accumulators, reset every tick.
	wDecided  int
	wFailed   int
	wLatSum   time.Duration
	wLatCount int
	wFillSum  int
	wCuts     int

	// The instruments every counted event is counted in, once, and the
	// published setting lives in (live but unrendered without
	// Config.Metrics): mBatch/mLinger are the effective setting,
	// mDenied[c] counts AdmitClass refusals of class c.
	mBatch, mLinger, mEwma, mLevel *metrics.Gauge
	mShedding                      [MaxClasses]*metrics.Gauge
	mDenied                        [MaxClasses]*metrics.Counter
	mAdjust, mTicks, mTransitions  *metrics.Counter
}

// NewPlane assembles a control plane. static is the service's
// statically configured choice, used when algorithm selection is off
// (its Name may be ""); start seeds the controller with the service's
// static batch/linger so an adaptive service begins exactly where its
// static twin stands and diverges only on evidence — the ceilings
// stretch to cover the starting point, so a static configuration above
// the controller's defaults is a larger envelope, never a silent clamp.
// n and t size the selector's ladder.
func NewPlane(cfg Config, static Choice, start Setting, n, t int) *Plane {
	cfg = cfg.withDefaults()
	if start.Batch > cfg.MaxBatch {
		cfg.MaxBatch = start.Batch
	}
	if start.Linger > cfg.MaxLinger {
		cfg.MaxLinger = start.Linger
	}
	p := &Plane{
		cfg:      cfg,
		static:   static,
		ctl:      NewController(cfg, start),
		lastTick: cfg.Now(),
	}
	if cfg.SelectAlgorithms {
		p.sel = NewSelector(n, t, cfg.ClimbAfter)
	}
	reg := cfg.Metrics
	p.mBatch = reg.Gauge("indulgence_adapt_batch_limit",
		"effective batch-size limit set by the controller", cfg.MetricsLabels...)
	p.mLinger = reg.Gauge("indulgence_adapt_linger_ns",
		"effective under-full batch linger in nanoseconds", cfg.MetricsLabels...)
	p.mEwma = reg.Gauge("indulgence_adapt_ewma_ns",
		"controller decision-latency EWMA baseline in nanoseconds", cfg.MetricsLabels...)
	p.mLevel = reg.Gauge("indulgence_adapt_selector_level",
		"selector ladder level (0 = fastest rung)", cfg.MetricsLabels...)
	p.mAdjust = reg.Counter("indulgence_adapt_adjustments_total",
		"controller ticks that changed the batch/linger setting", cfg.MetricsLabels...)
	p.mTicks = reg.Counter("indulgence_adapt_ticks_total",
		"controller ticks run", cfg.MetricsLabels...)
	p.mTransitions = reg.Counter("indulgence_adapt_selector_transitions_total",
		"selector ladder transitions", cfg.MetricsLabels...)
	for c := 0; c < cfg.Classes; c++ {
		classLabels := append([]metrics.Label{{Key: "class", Value: strconv.Itoa(c)}}, cfg.MetricsLabels...)
		p.mShedding[c] = reg.Gauge("indulgence_adapt_shedding",
			"whether admission control is currently shedding the class (0/1)", classLabels...)
		p.mDenied[c] = reg.Counter("indulgence_sheds_total",
			"proposals refused by per-class admission control", classLabels...)
	}
	p.publish(p.ctl.Setting())
	return p
}

// publish makes s the setting the hot paths read.
func (p *Plane) publish(s Setting) {
	p.mBatch.Set(int64(s.Batch))
	p.mLinger.Set(int64(s.Linger))
}

// Interval returns the control-loop period the owning service should
// tick at.
func (p *Plane) Interval() time.Duration { return p.cfg.Interval }

// BatchCeiling returns the largest batch the controller may ever set —
// what the service must size its intake for.
func (p *Plane) BatchCeiling() int { return p.cfg.MaxBatch }

// BatchLimit returns the current effective batch limit.
func (p *Plane) BatchLimit() int { return int(p.mBatch.Value()) }

// Linger returns the current effective linger.
func (p *Plane) Linger() time.Duration { return time.Duration(p.mLinger.Value()) }

// Classes returns the number of SLO classes admission distinguishes.
func (p *Plane) Classes() int { return p.cfg.Classes }

// AdmitClass gates one proposal of the given class (clamped to the
// configured class range). It returns nil when the proposal may enter
// intake, or the typed refusal — class, suggested back-off and retry
// budget — when the class is currently shed.
func (p *Plane) AdmitClass(class int) *OverloadError {
	if class < 0 {
		class = 0
	}
	if class >= p.cfg.Classes {
		class = p.cfg.Classes - 1
	}
	if p.shedMask.Load()&(1<<uint(class)) == 0 {
		return nil
	}
	p.mDenied[class].Inc()
	return &OverloadError{
		Class:      class,
		RetryAfter: time.Duration(p.cfg.AdmitTicks) * p.cfg.Interval,
		Budget:     retryBudget + class,
	}
}

// admitHigh is class c's high-water occupancy: AdmitHigh for class 0,
// interpolated up to AdmitTop for the highest class.
func (p *Plane) admitHigh(c int) float64 {
	if p.cfg.Classes <= 1 {
		return p.cfg.AdmitHigh
	}
	f := float64(c) / float64(p.cfg.Classes-1)
	return p.cfg.AdmitHigh + (p.cfg.AdmitTop-p.cfg.AdmitHigh)*f
}

// admitLow is class c's low-water occupancy: AdmitLow for class 0,
// rising toward AdmitHigh for higher classes so they disarm earlier as
// the queue drains.
func (p *Plane) admitLow(c int) float64 {
	if p.cfg.Classes <= 1 {
		return p.cfg.AdmitLow
	}
	f := float64(c) / float64(p.cfg.Classes)
	return p.cfg.AdmitLow + (p.cfg.AdmitHigh-p.cfg.AdmitLow)*f
}

// Selecting reports whether per-instance algorithm selection is on.
func (p *Plane) Selecting() bool { return p.sel != nil }

// ChoiceContext is the control plane's state at the moment one
// instance's launch was chosen — what the service journals as a
// decision-trace record. It deliberately carries no wire types: the
// service owns the mapping onto the codec.
type ChoiceContext struct {
	// Level is the selector's rung index (0 with selection off).
	Level int
	// Chosen names the algorithm picked; NotTaken names the ladder's
	// other rungs in ladder order (empty with selection off).
	Chosen   string
	NotTaken []string
	// Suspicions is the cumulative Outcome.Suspicions signal across
	// decided instances at choice time.
	Suspicions int
	// BatchLimit and Linger are the effective setting in force.
	BatchLimit int
	Linger     time.Duration
	// EWMA is the controller's decision-latency baseline.
	EWMA time.Duration
	// ShedMask is the per-class admission state (bit c = class c shed).
	ShedMask uint32
}

// PickContext returns the choice for the next instance together with
// the control-plane context behind it, under one lock acquisition, so
// a journaled trace can never disagree with the pick it annotates.
func (p *Plane) PickContext() (Choice, ChoiceContext) {
	p.mu.Lock()
	defer p.mu.Unlock()
	ctx := ChoiceContext{
		BatchLimit: p.BatchLimit(),
		Linger:     p.Linger(),
		EWMA:       p.ctl.EWMA(),
		ShedMask:   p.shedMask.Load(),
		Suspicions: p.suspicions,
	}
	choice := p.static
	if p.sel != nil {
		choice = p.sel.Pick()
		ctx.Level = p.sel.Level()
		for i, name := range p.sel.Rungs() {
			if i != ctx.Level {
				ctx.NotTaken = append(ctx.NotTaken, name)
			}
		}
	}
	ctx.Chosen = choice.Name
	return choice, ctx
}

// ObserveCut records one batch cut by its fill — the cut size as a
// percentage of the effective limit at the cut. The service computes
// the percentage once and feeds this window accumulator and its own
// Stats.BatchFill summary from the same number, so the controller
// and the exported stats can never disagree about a cut.
func (p *Plane) ObserveCut(fillPercent int) {
	p.mu.Lock()
	p.wCuts++
	p.wFillSum += fillPercent
	p.mu.Unlock()
}

// ObserveDecision records one decided instance: the latencies of the
// proposals it resolved and its suspicion signal (Outcome.Suspicions).
// The selector sees the outcome immediately (selection is per instance,
// not per tick); the controller sees the window aggregate at the next
// tick.
func (p *Plane) ObserveDecision(latencies []time.Duration, suspicions int) {
	var transition string
	p.mu.Lock()
	p.wDecided++
	p.suspicions += suspicions
	for _, l := range latencies {
		p.wLatSum += l
		p.wLatCount++
	}
	if p.sel != nil {
		if tr := p.sel.Report(Outcome{Suspicions: suspicions}); tr != "" {
			p.mTransitions.Inc()
			transition = tr
		}
		p.mLevel.Set(int64(p.sel.Level()))
	}
	p.mu.Unlock()
	if transition != "" {
		p.logf("adapt: selector %s (suspicions=%d)", transition, suspicions)
	}
}

// ObserveFailure records one instance that missed its decision.
func (p *Plane) ObserveFailure() {
	var transition string
	p.mu.Lock()
	p.wFailed++
	if p.sel != nil {
		if tr := p.sel.Report(Outcome{Failed: true}); tr != "" {
			p.mTransitions.Inc()
			transition = tr
		}
		p.mLevel.Set(int64(p.sel.Level()))
	}
	p.mu.Unlock()
	if transition != "" {
		p.logf("adapt: selector %s (missed decision)", transition)
	}
}

// Tick runs one control cycle: it folds the window accumulators and the
// sampled queue/slot occupancy into an Observation, applies the
// controller, updates admission, and publishes the new setting.
func (p *Plane) Tick(queueLen, queueCap, busy, slots int) Setting {
	var logs []string
	defer func() {
		for _, m := range logs {
			p.logf("%s", m)
		}
	}()
	p.mu.Lock()
	defer p.mu.Unlock()
	now := p.cfg.Now()
	obs := Observation{
		Decided:  p.wDecided,
		Failures: p.wFailed,
		QueueLen: queueLen, QueueCap: queueCap,
		Busy: busy, Slots: slots,
		Elapsed: now.Sub(p.lastTick),
	}
	if p.wLatCount > 0 {
		obs.Latency = p.wLatSum / time.Duration(p.wLatCount)
	}
	if p.wCuts > 0 {
		obs.FillPercent = p.wFillSum / p.wCuts
	}
	p.wDecided, p.wFailed, p.wLatSum, p.wLatCount, p.wFillSum, p.wCuts = 0, 0, 0, 0, 0, 0
	p.lastTick = now
	p.mTicks.Inc()
	setting, changed := p.ctl.Tick(obs)
	p.mEwma.Set(int64(p.ctl.EWMA()))
	if changed {
		p.mAdjust.Inc()
		p.publish(setting)
		if p.cfg.Logf != nil {
			logs = append(logs, fmt.Sprintf("adapt: batch=%d linger=%s (queue %d/%d, busy %d/%d, fill %d%%, lat %s, window %s)",
				setting.Batch, setting.Linger, queueLen, queueCap, busy, slots,
				obs.FillPercent, obs.Latency, obs.Elapsed))
		}
	}

	// Admission hysteresis, per class: AdmitTicks+c consecutive ticks at
	// or above class c's high-water mark arm its shedding (and only once
	// every lower class already sheds); one tick at or below its
	// low-water mark disarms it (and only once every higher class has
	// disarmed). The staggered tick counts and nested occupancy bands
	// make the shed order strictly lowest-class-first on the way up and
	// highest-class-first on the way down.
	occ := 0.0
	if queueCap > 0 {
		occ = float64(queueLen) / float64(queueCap)
	}
	mask := p.shedMask.Load()
	for c := 0; c < p.cfg.Classes; c++ {
		bit := uint32(1) << uint(c)
		switch {
		case occ >= p.admitHigh(c):
			p.hotTicks[c]++
			lowerShed := c == 0 || mask&(bit>>1) != 0
			if p.hotTicks[c] >= p.cfg.AdmitTicks+c && lowerShed && mask&bit == 0 {
				mask |= bit
				if p.cfg.Logf != nil {
					if p.cfg.Classes == 1 {
						logs = append(logs, fmt.Sprintf("adapt: admission shedding ON (queue %d/%d)", queueLen, queueCap))
					} else {
						logs = append(logs, fmt.Sprintf("adapt: admission shedding ON class %d (queue %d/%d)", c, queueLen, queueCap))
					}
				}
			}
		case occ <= p.admitLow(c):
			p.hotTicks[c] = 0
			higherShed := mask &^ (bit<<1 - 1)
			if mask&bit != 0 && higherShed == 0 {
				mask &^= bit
				if p.cfg.Logf != nil {
					if p.cfg.Classes == 1 {
						logs = append(logs, fmt.Sprintf("adapt: admission shedding off (queue %d/%d)", queueLen, queueCap))
					} else {
						logs = append(logs, fmt.Sprintf("adapt: admission shedding off class %d (queue %d/%d)", c, queueLen, queueCap))
					}
				}
			}
		default:
			p.hotTicks[c] = 0
		}
	}
	p.shedMask.Store(mask)
	for c := 0; c < p.cfg.Classes; c++ {
		shed := int64(0)
		if mask&(1<<uint(c)) != 0 {
			shed = 1
		}
		p.mShedding[c].Set(shed)
	}
	return setting
}

// Snapshot returns current control-plane counters.
func (p *Plane) Snapshot() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	mask := p.shedMask.Load()
	st := Stats{
		Batch:       p.ctl.Setting().Batch,
		Linger:      p.ctl.Setting().Linger,
		Adjustments: int(p.mAdjust.Value()),
		Ticks:       int(p.mTicks.Value()),
		Shedding:    mask&1 != 0,
		Transitions: int(p.mTransitions.Value()),
	}
	st.SheddingByClass = make([]bool, p.cfg.Classes)
	st.OverloadsByClass = make([]int, p.cfg.Classes)
	for c := 0; c < p.cfg.Classes; c++ {
		st.SheddingByClass[c] = mask&(1<<uint(c)) != 0
		st.OverloadsByClass[c] = int(p.mDenied[c].Value())
	}
	return st
}

// logf emits one decision-log line. It is called OUTSIDE the plane
// mutex — a user-supplied Logf (typically a synchronous stderr write)
// must not serialize the hot paths that report observations.
func (p *Plane) logf(format string, args ...any) {
	if p.cfg.Logf != nil {
		p.cfg.Logf(format, args...)
	}
}
