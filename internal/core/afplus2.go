package core

import (
	"fmt"
	"slices"

	"indulgence/internal/model"
	"indulgence/internal/payload"
)

// afPlus2 is algorithm A_{f+2} (Sect. 6, Fig. 5), the paper's fast
// eventually deciding consensus for t < n/3: if a run is synchronous after
// round k and suffers f crashes after round k, it globally decides by
// round k + f + 2 — against k + 2f + 2 for the leader-based AMR baseline
// it optimizes.
//
// Every round each undecided process broadcasts its estimate; the round
// engines send and adopt DECIDE once a process decides. On receiving the
// round-k messages a process selects the n−t round messages with the
// lowest sender identities as msgSet and:
//
//   - decides est′ if every message in msgSet carries the same est′;
//   - adopts any value occurring at least n−2t times in msgSet (unique
//     when t < n/3, by the quorum-intersection observation of Sect. 6);
//   - otherwise adopts the minimum estimate in msgSet.
type afPlus2 struct {
	ctx     model.ProcessContext
	opts    AfOptions
	est     model.Value
	decided model.OptValue
}

var _ model.Algorithm = (*afPlus2)(nil)
var _ model.Resetter = (*afPlus2)(nil)

// AfOptions configures A_{f+2}.
type AfOptions struct {
	// DisablePluralityAdoption drops the (n−2t)-plurality adoption rule,
	// always adopting the minimum of msgSet instead. Ablation only: the
	// rule is what forces every process to adopt a freshly decided value
	// (Lemma 14); without it a decider's value can be abandoned by the
	// survivors and agreement breaks (see the ablation experiments for a
	// seven-process witness run).
	DisablePluralityAdoption bool
}

// NewAfPlus2 returns a Factory for A_{f+2}. It requires t < n/3.
func NewAfPlus2() model.Factory { return NewAfPlus2Opts(AfOptions{}) }

// NewAfPlus2Opts returns a Factory for A_{f+2} with explicit options.
func NewAfPlus2Opts(opts AfOptions) model.Factory {
	return func(ctx model.ProcessContext, proposal model.Value) (model.Algorithm, error) {
		if err := ctx.Validate(); err != nil {
			return nil, err
		}
		if 3*ctx.T >= ctx.N {
			return nil, fmt.Errorf("core: A_f+2 requires t < n/3, got t=%d n=%d", ctx.T, ctx.N)
		}
		a := &afPlus2{ctx: ctx, opts: opts}
		a.Reset(proposal)
		return a, nil
	}
}

// Reset implements model.Resetter; the factory builds through it too.
func (a *afPlus2) Reset(proposal model.Value) {
	*a = afPlus2{ctx: a.ctx, opts: a.opts, est: proposal}
}

// Name implements model.Algorithm.
func (a *afPlus2) Name() string {
	if a.opts.DisablePluralityAdoption {
		return AfPlus2Name + "[noplur]"
	}
	return AfPlus2Name
}

// StartRound implements model.Algorithm.
func (a *afPlus2) StartRound(model.Round) model.Payload {
	return payload.Estimate{Est: a.est}
}

// EndRound implements model.Algorithm.
func (a *afPlus2) EndRound(k model.Round, delivered []model.Message) {
	// msgSet: the n−t round-k messages with the lowest sender ids
	// (delivered is sorted by (round, sender), so the filtered slice is
	// sorted by sender).
	roundMsgs := payload.OfRound(k, delivered)
	ests := make([]model.Value, 0, len(roundMsgs))
	for _, m := range roundMsgs {
		e, ok := m.Payload.(payload.Estimate)
		if !ok {
			continue
		}
		ests = append(ests, e.Est)
	}
	quorum := a.ctx.N - a.ctx.T
	if len(ests) < quorum {
		// Fewer than n−t estimates can only happen transiently outside
		// the model guarantees (e.g. live runtime warm-up); skip the
		// round rather than act on insufficient evidence.
		return
	}
	ests = ests[:quorum]

	counts := make(map[model.Value]int, len(ests))
	var bestVal model.Value
	bestCnt := 0
	for _, v := range ests {
		counts[v]++
		if cnt := counts[v]; cnt > bestCnt || (cnt == bestCnt && v < bestVal) {
			bestVal, bestCnt = v, cnt
		}
	}
	switch {
	case bestCnt == quorum:
		a.decided = model.Some(bestVal)
	case !a.opts.DisablePluralityAdoption && bestCnt >= a.ctx.N-2*a.ctx.T:
		a.est = bestVal
	default:
		a.est = slices.Min(ests)
	}
}

// Decision implements model.Algorithm.
func (a *afPlus2) Decision() (model.Value, bool) { return a.decided.Get() }
