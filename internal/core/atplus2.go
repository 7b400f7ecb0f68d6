// Package core implements the paper's contributions: the matching
// algorithm A_{t+2} of Sect. 3 (Fig. 2) with its failure-free optimization
// (Sect. 5.2, Fig. 4) and ◇S adaptation (Sect. 5.1, Fig. 3), the fast
// eventually deciding algorithm A_{f+2} of Sect. 6 (Fig. 5), and the
// elimination-property machinery of Lemmas 6–13 as independently replayed
// run checkers.
package core

import (
	"fmt"

	"indulgence/internal/baseline"
	"indulgence/internal/fd"
	"indulgence/internal/model"
	"indulgence/internal/payload"
)

// Algorithm names reported by the constructors in this package.
const (
	AtPlus2Name  = "A_t+2"
	DiamondSName = "A_diamondS"
	AfPlus2Name  = "A_f+2"
)

// Options configures A_{t+2}.
type Options struct {
	// Underlying builds the independent consensus module C invoked when
	// the fast path fails (Fig. 2, lines 15–16). Defaults to the
	// Chandra–Toueg-style ◇S algorithm baseline.NewCT (footnote 7).
	// A caller-supplied factory is probed once per construction, so its
	// configuration errors surface from New's factory; the default is
	// not, as New's own checks cover every way it can fail.
	Underlying model.Factory
	// FailureFreeFast enables the Fig. 4 optimization: global decision at
	// round 2 in failure-free, suspicion-free synchronous runs.
	FailureFreeFast bool
	// Phase1Rounds overrides the length of Phase 1 (default and paper
	// value: t+1). It exists only for the ablation experiments, which
	// demonstrate that shortening Phase 1 breaks the elimination property
	// and with it uniform agreement. Values other than t+1 are unsafe.
	Phase1Rounds int
	// UnsafeSkipResilienceCheck disables the t < n/2 constructor check
	// and the probe of a caller-supplied Underlying. It exists solely for
	// the Sect. 1.1 resilience-price experiment, which runs A_{t+2}
	// outside its safe envelope to demonstrate the split-brain agreement
	// violation that makes a correct majority necessary. There the
	// default underlying consensus cannot be built, and a process that
	// reaches round t+3 stalls (see underlying).
	UnsafeSkipResilienceCheck bool
	// DisableHaltExchange drops the "p_j reported having suspected me"
	// rule from the Halt update (Fig. 2, line 33's second clause),
	// keeping only direct suspicions. Ablation only: the elimination
	// property then fails and agreement breaks under false suspicions
	// (see the ablation experiments for a three-process witness run).
	DisableHaltExchange bool
	// DetectorThreshold overrides the false-suspicion detector threshold
	// (Fig. 2, line 10: nE := ⊥ iff |Halt| > t). 0 selects the paper's
	// t. Ablation only: a larger threshold misses false suspicions and
	// breaks agreement; a smaller one misreports crashes as false
	// suspicions and forfeits the t+2 fast decision.
	DetectorThreshold int
	// name overrides the reported algorithm name (used by NewDiamondS).
	name string
}

// atPlus2 is algorithm A_{t+2} (Fig. 2). Phase 1 spans rounds 1..t+1:
// processes flood (est, Halt) and track suspicions symmetrically — p_j
// enters Halt_i if p_i missed p_j's round message, or if p_j reported
// having suspected p_i. Phase 2 is round t+2: a process that detected a
// false suspicion (|Halt| > t) broadcasts nE = ⊥, others broadcast their
// estimate; receiving only non-⊥ values decides, otherwise the process
// delegates to the underlying consensus C with proposal vc from round t+3
// on. The round engines send and adopt the DECIDE a decider broadcasts
// from round t+3 (with the Fig. 4 optimization, from round 3).
type atPlus2 struct {
	ctx      model.ProcessContext
	opts     Options
	p1       int // Phase-1 length (t+1 unless ablated)
	proposal model.Value

	est     model.Value
	halt    model.PIDSet
	vc      model.Value
	decided model.OptValue

	under model.Algorithm // underlying C, created lazily at round t+3
}

var _ model.Algorithm = (*atPlus2)(nil)
var _ model.Resetter = (*atPlus2)(nil)

// New returns a Factory for A_{t+2} with the given options. It requires
// the indulgence resilience 0 < t < n/2 (for t = 0 the paper notes
// consensus is trivially solvable in one round; use the failure-free
// optimization or FloodSet instead).
func New(opts Options) model.Factory {
	return func(ctx model.ProcessContext, proposal model.Value) (model.Algorithm, error) {
		if err := ctx.Validate(); err != nil {
			return nil, err
		}
		if !ctx.MajorityCorrect() && !opts.UnsafeSkipResilienceCheck {
			return nil, fmt.Errorf("core: A_t+2 requires t < n/2, got t=%d n=%d", ctx.T, ctx.N)
		}
		o := opts
		if o.Underlying == nil {
			// The default's only failure conditions are ctx.Validate and
			// t < n/2, both checked above: it needs no probe.
			o.Underlying = baseline.NewCT()
		} else if !o.UnsafeSkipResilienceCheck {
			// Probe a caller-supplied factory now so configuration errors
			// surface at construction rather than mid-run.
			if _, err := o.Underlying(ctx, proposal); err != nil {
				return nil, fmt.Errorf("core: underlying consensus: %w", err)
			}
		}
		p1 := o.Phase1Rounds
		if p1 <= 0 {
			p1 = ctx.T + 1
		}
		a := &atPlus2{ctx: ctx, opts: o, p1: p1}
		a.Reset(proposal)
		return a, nil
	}
}

// Reset implements model.Resetter; the factory builds through it too. It
// also drops the underlying instance, which is built again at round t+3
// from the new run's vc. A caller-supplied Underlying is not probed again:
// its probe at construction stands for every proposal.
func (a *atPlus2) Reset(proposal model.Value) {
	*a = atPlus2{ctx: a.ctx, opts: a.opts, p1: a.p1, proposal: proposal, est: proposal, vc: proposal}
}

// Name implements model.Algorithm.
func (a *atPlus2) Name() string {
	if a.opts.name != "" {
		return a.opts.name
	}
	name := AtPlus2Name
	if a.opts.FailureFreeFast {
		name += "+ff"
	}
	if a.p1 != a.ctx.T+1 {
		name += fmt.Sprintf("[p1=%d]", a.p1)
	}
	if a.opts.DisableHaltExchange {
		name += "[nohaltx]"
	}
	if a.opts.DetectorThreshold != 0 {
		name += fmt.Sprintf("[thr=%d]", a.opts.DetectorThreshold)
	}
	return name
}

// threshold returns the false-suspicion detector threshold.
func (a *atPlus2) threshold() int {
	if a.opts.DetectorThreshold != 0 {
		return a.opts.DetectorThreshold
	}
	return a.ctx.T
}

// StartRound implements model.Algorithm.
func (a *atPlus2) StartRound(k model.Round) model.Payload {
	switch {
	case int(k) <= a.p1:
		return payload.EstHalt{Est: a.est, Halt: a.halt}
	case int(k) == a.p1+1:
		// Beginning of round t+2: compute the new estimate. |Halt| > t
		// certifies a false suspicion somewhere (Fig. 2, line 10): either
		// some p_j ∈ Halt with self ∈ Halt_j falsely suspected us, or we
		// suspected more than t processes, of which at most t can have
		// crashed.
		nE := model.Bottom()
		if a.halt.Len() <= a.threshold() {
			nE = model.Some(a.est)
		}
		return payload.NewEstimate{NE: nE}
	default:
		return payload.Wrap{Inner: a.underlying().StartRound(a.innerRound(k))}
	}
}

// EndRound implements model.Algorithm.
func (a *atPlus2) EndRound(k model.Round, delivered []model.Message) {
	switch {
	case int(k) <= a.p1:
		if a.opts.FailureFreeFast && k == 2 {
			if a.failureFreeFast(delivered) {
				return
			}
		}
		a.compute(k, delivered)
	case int(k) == a.p1+1:
		a.phase2(k, delivered)
	default:
		inner := make([]model.Message, 0, len(delivered))
		for _, m := range delivered {
			w, ok := m.Payload.(payload.Wrap)
			if !ok {
				continue
			}
			inner = append(inner, model.Message{
				From:    m.From,
				Round:   a.innerRound(m.Round),
				Payload: w.Inner,
			})
		}
		u := a.underlying()
		u.EndRound(a.innerRound(k), inner)
		if v, ok := u.Decision(); ok {
			a.decided = model.Some(v)
		}
	}
}

// compute is the Phase-1 state update (Fig. 2, lines 30–35): extend Halt
// with the processes missing from this round and with those that report
// having suspected us, then lower the estimate to the minimum over the
// round messages from non-halted senders.
func (a *atPlus2) compute(k model.Round, delivered []model.Message) {
	roundMsgs := payload.OfRound(k, delivered)
	a.halt = a.halt.Union(fd.Suspected(a.ctx.N, k, delivered))
	if !a.opts.DisableHaltExchange {
		for _, m := range roundMsgs {
			eh, ok := m.Payload.(payload.EstHalt)
			if !ok {
				continue
			}
			if eh.Halt.Has(a.ctx.Self) {
				a.halt.Add(m.From)
			}
		}
	}
	for _, m := range roundMsgs {
		eh, ok := m.Payload.(payload.EstHalt)
		if !ok || a.halt.Has(m.From) {
			continue
		}
		if eh.Est < a.est {
			a.est = eh.Est
		}
	}
}

// failureFreeFast is the Fig. 4 optimization, evaluated on the round-2
// receive set before the normal compute. If round-2 messages arrived from
// all n processes and none reports a suspicion, round 1 was a complete
// suspicion-free exchange: every estimate already equals the global
// minimum, so deciding on any received estimate is safe. If only a subset
// arrived but none reports a suspicion, the proposal vc for the underlying
// consensus is seeded with a received estimate. Returns true if a decision
// was taken.
func (a *atPlus2) failureFreeFast(delivered []model.Message) bool {
	roundMsgs := payload.OfRound(2, delivered)
	est := model.NoValue
	clean := true
	for _, m := range roundMsgs {
		eh, ok := m.Payload.(payload.EstHalt)
		if !ok || !eh.Halt.IsEmpty() {
			clean = false
			break
		}
		if est == model.NoValue || eh.Est < est {
			est = eh.Est
		}
	}
	if !clean || est == model.NoValue {
		return false
	}
	if len(roundMsgs) == a.ctx.N {
		a.decided = model.Some(est)
		return true
	}
	a.vc = est
	return false
}

// phase2 processes the round-(t+2) NEWESTIMATE exchange. By t-resilience
// at least n−t round messages arrived; by the elimination property
// (Lemma 6) they carry at most one distinct non-⊥ value.
func (a *atPlus2) phase2(k model.Round, delivered []model.Message) {
	roundMsgs := payload.OfRound(k, delivered)
	var (
		sawNE    bool
		sawBot   bool
		best     model.Value
		haveBest bool
	)
	for _, m := range roundMsgs {
		ne, ok := m.Payload.(payload.NewEstimate)
		if !ok {
			continue
		}
		sawNE = true
		v, some := ne.NE.Get()
		if !some {
			sawBot = true
			continue
		}
		if !haveBest || v < best {
			best, haveBest = v, true
		}
	}
	switch {
	case sawNE && !sawBot && haveBest:
		// Only non-⊥ new estimates: decide (Fig. 2, line 13).
		a.decided = model.Some(best)
	case haveBest:
		// Some non-⊥ value among ⊥s: propose it to C.
		a.vc = best
	default:
		// Every new estimate was ⊥ (or none arrived): vc keeps its
		// current value — the proposal, or the Fig. 4 seed.
	}
}

// underlying returns the underlying consensus instance, creating it with
// proposal vc on first use (round t+3, Fig. 2 line 15: proposeC(vc)).
func (a *atPlus2) underlying() model.Algorithm {
	if a.under == nil {
		u, err := a.opts.Underlying(a.ctx, a.vc)
		if err != nil {
			// A caller-supplied factory was probed at construction with
			// the same context, and the default fails only where New's
			// checks do. A failure here means a non-deterministic factory
			// or a run built with UnsafeSkipResilienceCheck. Fall back to
			// a stalled instance: the process stops making progress
			// towards a decision but stays safe.
			u = stalled{name: "stalled"}
		}
		a.under = u
	}
	return a.under
}

// innerRound maps an outer round to the underlying algorithm's round
// numbering (outer round t+3 is C's round 1).
func (a *atPlus2) innerRound(k model.Round) model.Round {
	return k - model.Round(a.p1+1)
}

// Decision implements model.Algorithm.
func (a *atPlus2) Decision() (model.Value, bool) { return a.decided.Get() }

// stalled is a never-deciding placeholder algorithm (see underlying).
type stalled struct{ name string }

var _ model.Algorithm = stalled{}

func (s stalled) Name() string                          { return s.name }
func (s stalled) StartRound(model.Round) model.Payload  { return nil }
func (s stalled) EndRound(model.Round, []model.Message) {}
func (s stalled) Decision() (model.Value, bool)         { return 0, false }
