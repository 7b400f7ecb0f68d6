// Package baseline implements the consensus algorithms the paper compares
// against, plus the underlying consensus module C that A_{t+2} delegates to:
//
//   - FloodSet [Lynch 1996]: the t+1-round algorithm for the synchronous
//     crash-stop model SCS — the yardstick against which the paper defines
//     the one-round "price of indulgence" (Sect. 1.3).
//   - FloodSetWS [Charron-Bost, Guerraoui & Schiper 2000]: flooding with
//     perfect failure detection and Halt bookkeeping; global decision at
//     t+1; the algorithm A_{t+2} is a variant of it (Sect. 3.1).
//   - CT: a Chandra–Toueg-style rotating-coordinator ◇S consensus
//     transposed to ES rounds — the paper's underlying module C (footnote 7).
//   - HurfinRaynal [Hurfin & Raynal 1999]: the previously fastest indulgent
//     algorithm, with synchronous runs needing 2t+2 rounds (Sect. 1.4).
//   - AMR [Mostefaoui & Raynal 2001]: the leader-based algorithm that
//     A_{f+2} optimizes, translated to ES per footnote 10; it needs
//     k+2f+2 rounds in runs synchronous after round k with f late crashes.
//
// All algorithms implement model.Algorithm. None sends or reads DECIDE:
// the round engines send it for a decided process, so late processes
// decide too (and the t-resilience axiom remains satisfiable), and decide
// on one a receive set holds.
package baseline

import (
	"fmt"
	"slices"

	"indulgence/internal/model"
	"indulgence/internal/payload"
)

// FloodSetName is the algorithm name reported by FloodSet instances.
const FloodSetName = "FloodSet"

// floodSet is the classic synchronous-model flooding consensus: for t+1
// rounds every process broadcasts the set of values it has seen; at the end
// of round t+1 it decides the minimum. Correct only in SCS (it is not
// indulgent: a single false suspicion can break agreement, which is exactly
// the paper's starting point).
type floodSet struct {
	ctx     model.ProcessContext
	seen    map[model.Value]struct{}
	decided model.OptValue
}

var _ model.Algorithm = (*floodSet)(nil)
var _ model.Resetter = (*floodSet)(nil)

// NewFloodSet returns a Factory for FloodSet. It requires t ≤ n−2 (the
// regime in which the t+1 bound of [13] is meaningful).
func NewFloodSet() model.Factory {
	return func(ctx model.ProcessContext, proposal model.Value) (model.Algorithm, error) {
		if err := ctx.Validate(); err != nil {
			return nil, err
		}
		if ctx.T > ctx.N-2 {
			return nil, fmt.Errorf("baseline: FloodSet requires t <= n-2, got t=%d n=%d", ctx.T, ctx.N)
		}
		f := &floodSet{ctx: ctx, seen: make(map[model.Value]struct{})}
		f.Reset(proposal)
		return f, nil
	}
}

// Reset implements model.Resetter; the factory builds through it too. The
// seen set keeps its storage: no payload shares it.
func (f *floodSet) Reset(proposal model.Value) {
	clear(f.seen)
	f.seen[proposal] = struct{}{}
	*f = floodSet{ctx: f.ctx, seen: f.seen}
}

// Name implements model.Algorithm.
func (f *floodSet) Name() string { return FloodSetName }

// StartRound implements model.Algorithm.
func (f *floodSet) StartRound(model.Round) model.Payload {
	vals := make([]model.Value, 0, len(f.seen))
	for v := range f.seen {
		vals = append(vals, v)
	}
	return payload.NewValues(vals)
}

// EndRound implements model.Algorithm.
func (f *floodSet) EndRound(k model.Round, delivered []model.Message) {
	for _, m := range delivered {
		vs, ok := m.Payload.(payload.Values)
		if !ok {
			continue
		}
		for _, v := range vs.Vals {
			f.seen[v] = struct{}{}
		}
	}
	if int(k) >= f.ctx.T+1 {
		f.decided = model.Some(f.min())
	}
}

func (f *floodSet) min() model.Value {
	vals := make([]model.Value, 0, len(f.seen))
	for v := range f.seen {
		vals = append(vals, v)
	}
	return slices.Min(vals)
}

// Decision implements model.Algorithm.
func (f *floodSet) Decision() (model.Value, bool) { return f.decided.Get() }
