package baseline

import (
	"fmt"

	"indulgence/internal/fd"
	"indulgence/internal/model"
	"indulgence/internal/payload"
)

// FloodSetWSName is the algorithm name reported by FloodSetWS instances.
const FloodSetWSName = "FloodSetWS"

// floodSetWS is the FloodSetWS algorithm of [Charron-Bost, Guerraoui &
// Schiper 2000] in its round form: estimate flooding with Halt bookkeeping
// under perfect failure detection, deciding the current estimate at the
// end of round t+1. In SCS every suspicion is accurate (a missing round-k
// message implies the sender crashed), which is exactly the perfect
// failure detector P; the algorithm then achieves global decision at round
// t+1 in every run. A_{t+2} (internal/core) is this algorithm extended by
// one round of false-suspicion detection, which is how the paper derives
// its matching upper bound.
type floodSetWS struct {
	ctx     model.ProcessContext
	est     model.Value
	halt    model.PIDSet
	decided model.OptValue
}

var _ model.Algorithm = (*floodSetWS)(nil)
var _ model.Resetter = (*floodSetWS)(nil)

// NewFloodSetWS returns a Factory for FloodSetWS. It requires t ≤ n−2 and
// is correct only under SCS (perfect suspicions).
func NewFloodSetWS() model.Factory {
	return func(ctx model.ProcessContext, proposal model.Value) (model.Algorithm, error) {
		if err := ctx.Validate(); err != nil {
			return nil, err
		}
		if ctx.T > ctx.N-2 {
			return nil, fmt.Errorf("baseline: FloodSetWS requires t <= n-2, got t=%d n=%d", ctx.T, ctx.N)
		}
		f := &floodSetWS{ctx: ctx}
		f.Reset(proposal)
		return f, nil
	}
}

// Reset implements model.Resetter; the factory builds through it too.
func (f *floodSetWS) Reset(proposal model.Value) { *f = floodSetWS{ctx: f.ctx, est: proposal} }

// Name implements model.Algorithm.
func (f *floodSetWS) Name() string { return FloodSetWSName }

// StartRound implements model.Algorithm.
func (f *floodSetWS) StartRound(model.Round) model.Payload {
	return payload.EstHalt{Est: f.est, Halt: f.halt}
}

// EndRound implements model.Algorithm.
func (f *floodSetWS) EndRound(k model.Round, delivered []model.Message) {
	roundMsgs := payload.OfRound(k, delivered)
	// Suspect every process whose round-k message is missing, and every
	// process that reports having suspected us.
	f.halt = f.halt.Union(fd.Suspected(f.ctx.N, k, delivered))
	for _, m := range roundMsgs {
		eh, ok := m.Payload.(payload.EstHalt)
		if !ok {
			continue
		}
		if eh.Halt.Has(f.ctx.Self) {
			f.halt.Add(m.From)
		}
	}
	// msgSet: round-k messages whose senders are not halted.
	for _, m := range roundMsgs {
		eh, ok := m.Payload.(payload.EstHalt)
		if !ok || f.halt.Has(m.From) {
			continue
		}
		if eh.Est < f.est {
			f.est = eh.Est
		}
	}
	if int(k) >= f.ctx.T+1 {
		f.decided = model.Some(f.est)
	}
}

// Decision implements model.Algorithm.
func (f *floodSetWS) Decision() (model.Value, bool) { return f.decided.Get() }
