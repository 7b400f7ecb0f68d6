// Package adapt is the service layer's control plane: it closes the
// feedback loop between observed execution and service configuration,
// so the paper's price gap — A_f+2 decides in f+2 rounds where the
// indulgent A_t+2 pays t+2, and batching amortizes whichever price is
// paid — is exploited at run time instead of being fixed by hand-picked
// constants.
//
// Three cooperating mechanisms, assembled into a Plane that the service
// layer embeds:
//
//   - Controller: an AIMD-style tuner of the effective batch size and
//     linger. Intake backlog additively grows the batch (bigger batches
//     drain a burst in fewer t+2-round instances); a decision-latency
//     regression against the controller's EWMA baseline multiplicatively
//     shrinks both knobs; an idle service decays its linger toward the
//     floor so a lone proposal never waits out a window tuned for a
//     burst that ended.
//   - Selector: a per-instance algorithm policy. While recent instances
//     decide cleanly it picks the fast ladder level (A_f+2 when t < n/3
//     permits it); observed failure-detector suspicions demote one level
//     (to the ◇S discipline), and a missed decision drops straight to
//     the indulgent safe level A_t+2. Consecutive clean decisions climb
//     back up. Concurrent instances under one service may therefore run
//     different algorithms — each instance is internally homogeneous,
//     which is what consensus requires.
//   - Admission: when the intake queue saturates for consecutive control
//     ticks, new proposals are shed with ErrOverload until the queue
//     drains below the low-water mark, so overload surfaces as a typed
//     error instead of unbounded queueing delay.
//
// # Determinism contract
//
// The controller and the selector are pure state machines: their only
// inputs are explicit Observation values (and, for logging, the clock
// injected through Config.Now). Feeding a scripted observation sequence
// under a fixed virtual clock reproduces the exact same trajectory of
// settings, level transitions and log lines on every run — that is what
// the unit tests in this package assert, and what makes controller
// behaviour reviewable offline. All wall-clock sampling lives in the
// service layer's tick loop, outside the controlled state machines.
package adapt

import (
	"errors"
	"fmt"
	"time"

	"indulgence/internal/core"
	"indulgence/internal/metrics"
	"indulgence/internal/model"
)

// ErrOverload reports a proposal shed by admission control: the intake
// queue stayed saturated across consecutive controller ticks. Callers
// should back off and retry; the service remains healthy.
var ErrOverload = errors.New("adapt: service overloaded, proposal shed")

// MaxClasses bounds the SLO classes admission control distinguishes
// (classes 0..7; higher classes are more important and shed later).
const MaxClasses = 8

// OverloadError is the typed admission refusal classed traffic
// receives: which class was shed, how long the client should wait
// before retrying, and how many retries its class is budgeted.
// errors.Is(err, ErrOverload) matches it, so legacy callers keep
// working unchanged.
type OverloadError struct {
	// Class is the SLO class of the shed proposal.
	Class int
	// RetryAfter is the suggested back-off before the next attempt —
	// the minimum time admission needs to disarm once load drops.
	RetryAfter time.Duration
	// Budget is the per-class retry budget: how many back-off retries
	// the class is entitled to before the client should give up or
	// degrade. Higher classes get larger budgets.
	Budget int
}

// Error implements error.
func (e *OverloadError) Error() string {
	return fmt.Sprintf("adapt: class %d shed, retry after %s (budget %d)", e.Class, e.RetryAfter, e.Budget)
}

// Unwrap makes errors.Is(e, ErrOverload) true.
func (e *OverloadError) Unwrap() error { return ErrOverload }

// The controller's fixed increments and the admission retry budget.
const (
	// batchStep is the additive batch increase applied per congested
	// tick (the multiplicative decrease is fixed at 1/2).
	batchStep = 4
	// lingerStep is the additive linger increase applied when under-full
	// batches are cut while instances stream.
	lingerStep = 250 * time.Microsecond
	// retryBudget is the base per-class retry budget surfaced in
	// OverloadError; class c is budgeted retryBudget + c.
	retryBudget = 3
)

// Config describes the control plane attached to a service.
type Config struct {
	// MinBatch and MaxBatch bound the effective batch size the
	// controller may set (defaults 1 and 64). MaxBatch is also the
	// intake-sizing ceiling the service must provision for.
	MinBatch, MaxBatch int
	// MinLinger and MaxLinger bound the effective linger (defaults 0
	// and 8ms). A floor of zero lets an idle service cut lone proposals
	// immediately.
	MinLinger, MaxLinger time.Duration
	// Interval is the control-loop period (default 5ms): how often the
	// service snapshots observations and runs one controller tick.
	Interval time.Duration
	// SelectAlgorithms enables the per-instance algorithm selector.
	// Only the single-process service may enable it: a multi-process
	// member cannot unilaterally change the protocol of a slot it
	// shares with its peers.
	SelectAlgorithms bool
	// ClimbAfter is how many consecutive clean decisions promote the
	// selector one ladder level toward the fast algorithm (default 8).
	ClimbAfter int
	// AdmitHigh and AdmitLow are the intake-occupancy hysteresis bounds
	// of admission control (defaults 0.9 and 0.5): shedding starts after
	// AdmitTicks consecutive ticks at or above AdmitHigh and stops at or
	// below AdmitLow.
	AdmitHigh, AdmitLow float64
	// AdmitTicks is how many consecutive saturated ticks arm shedding
	// (default 2).
	AdmitTicks int
	// Classes is how many SLO classes admission distinguishes (default
	// 1, max MaxClasses). With more than one class, shedding arms per
	// class from the lowest class up — class c sheds only at higher
	// occupancy, after more consecutive hot ticks, and only while every
	// class below it is already shedding — and disarms from the highest
	// class down as the queue drains, so under saturation classes shed
	// strictly lowest-first.
	Classes int
	// AdmitTop is the occupancy at which even the highest class sheds
	// (default 0.98). Per-class high-water marks interpolate from
	// AdmitHigh (class 0) to AdmitTop (class Classes-1); per-class
	// low-water marks interpolate from AdmitLow (class 0) toward
	// AdmitHigh, so higher classes disarm earlier on drain.
	AdmitTop float64
	// Metrics, when non-nil, registers the control plane's instruments
	// on this registry: batch/linger/EWMA/selector-level gauges,
	// adjustment/tick/transition counters, and per-class shedding
	// gauges and shed counters (registered eagerly for every
	// configured class, so a scrape always shows the full class set).
	Metrics *metrics.Registry
	// MetricsLabels are attached to every series Metrics registers —
	// the service passes its group="0" label here.
	MetricsLabels []metrics.Label
	// Logf, when non-nil, receives one line per controller adjustment,
	// selector transition and admission flip — the decision log surfaced
	// by the CLI's -verbose mode.
	Logf func(format string, args ...any)
	// Now is the clock used for log timestamps and observation windows
	// (default time.Now). Tests inject a fixed virtual clock to make
	// trajectories — including logged window durations — byte-exact.
	Now func() time.Time
}

// withDefaults returns cfg with zero fields replaced by defaults.
func (cfg Config) withDefaults() Config {
	if cfg.MinBatch == 0 {
		cfg.MinBatch = 1
	}
	if cfg.MaxBatch == 0 {
		cfg.MaxBatch = 64
	}
	if cfg.MaxLinger == 0 {
		cfg.MaxLinger = 8 * time.Millisecond
	}
	if cfg.Interval == 0 {
		cfg.Interval = 5 * time.Millisecond
	}
	if cfg.ClimbAfter == 0 {
		cfg.ClimbAfter = 8
	}
	if cfg.AdmitHigh == 0 {
		cfg.AdmitHigh = 0.9
	}
	if cfg.AdmitLow == 0 {
		cfg.AdmitLow = 0.5
	}
	if cfg.AdmitTicks == 0 {
		cfg.AdmitTicks = 2
	}
	if cfg.Classes < 1 {
		cfg.Classes = 1
	}
	if cfg.Classes > MaxClasses {
		cfg.Classes = MaxClasses
	}
	if cfg.AdmitTop == 0 {
		cfg.AdmitTop = 0.98
	}
	if cfg.AdmitTop < cfg.AdmitHigh {
		cfg.AdmitTop = cfg.AdmitHigh
	}
	if cfg.Now == nil {
		//indulgence:wallclock production default for Config.Now; tests inject a virtual source
		cfg.Now = time.Now
	}
	return cfg
}

// Choice is one selectable algorithm configuration: the factory every
// node of an instance is built from, the receive discipline it needs,
// and the name recorded in the journal's start claim for that instance.
type Choice struct {
	// Name is the algorithm name (core.AfPlus2Name et al.).
	Name string
	// Factory builds each process's algorithm for the instance.
	Factory model.Factory
	// WaitPolicy is the receive discipline the algorithm requires
	// (A_◇S is only live under WaitQuorum; the others use the ◇P-style
	// WaitUnsuspected).
	WaitPolicy core.WaitPolicy
}

// ProbeName returns the algorithm name a factory reports for an (n, t)
// system, or "" if the factory refuses the configuration. It exists so
// services can tag journal start claims with the statically configured
// algorithm without knowing how it was constructed.
func ProbeName(factory model.Factory, n, t int) string {
	if factory == nil {
		return ""
	}
	alg, err := factory(model.ProcessContext{Self: 1, N: n, T: t}, 0)
	if err != nil {
		return ""
	}
	return alg.Name()
}
