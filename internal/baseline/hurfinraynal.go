package baseline

import (
	"fmt"

	"indulgence/internal/model"
	"indulgence/internal/payload"
)

// HurfinRaynalName is the algorithm name reported by HurfinRaynal
// instances.
const HurfinRaynalName = "HurfinRaynal"

// RoundsPerPhaseHR is the number of rounds in one Hurfin–Raynal phase.
const RoundsPerPhaseHR = 2

// hurfinRaynal is the Hurfin–Raynal ◇S consensus [10] in its essential
// round form: a rotating coordinator with two rounds per phase. Before the
// paper's A_{t+2}, this was the most efficient indulgent algorithm known
// in worst-case synchronous runs, and the paper's Sect. 1.4 comparison
// point: crashing the coordinators of the first t phases forces a
// synchronous run in which the global decision only happens at round 2t+2.
//
// Phase r (coordinator c = ((r−1) mod n) + 1):
//
//	round 2r−1 (A): the coordinator broadcasts its proposal (selected from
//	                the timestamped estimates received in the previous
//	                round; its own proposal in phase 1); other processes
//	                broadcast their estimate. A process receiving the
//	                proposal in-round adopts (est, ts) := (v, r).
//	round 2r   (B): every process broadcasts its estimate together with a
//	                positive or negative acknowledgement; a process that
//	                observes a majority of positive acknowledgements for v
//	                decides v, and coordinators of later phases refresh
//	                their view of the estimates from these messages.
//
// The structure preserves exactly the property the paper cites: 2 rounds
// per coordinator crash, hence 2t+2 rounds in the worst synchronous run,
// and 2 rounds in failure-free synchronous runs.
type hurfinRaynal struct {
	ctx     model.ProcessContext
	est     model.Value
	ts      int
	prop    model.OptValue // proposal to send when coordinating
	ackVal  model.OptValue // acknowledgement to send in round B
	decided model.OptValue
}

var _ model.Algorithm = (*hurfinRaynal)(nil)
var _ model.Resetter = (*hurfinRaynal)(nil)

// NewHurfinRaynal returns a Factory for the Hurfin–Raynal baseline. It
// requires the indulgence resilience t < n/2.
func NewHurfinRaynal() model.Factory {
	return func(ctx model.ProcessContext, proposal model.Value) (model.Algorithm, error) {
		if err := ctx.Validate(); err != nil {
			return nil, err
		}
		if !ctx.MajorityCorrect() {
			return nil, fmt.Errorf("baseline: HurfinRaynal requires t < n/2, got t=%d n=%d", ctx.T, ctx.N)
		}
		h := &hurfinRaynal{ctx: ctx}
		h.Reset(proposal)
		return h, nil
	}
}

// Reset implements model.Resetter; the factory builds through it too.
func (h *hurfinRaynal) Reset(proposal model.Value) {
	*h = hurfinRaynal{ctx: h.ctx, est: proposal}
	if coordOf(1, h.ctx.N) == h.ctx.Self {
		h.prop = model.Some(proposal)
	}
}

func phasePosHR(k model.Round) (phase, pos int) {
	return (int(k)-1)/RoundsPerPhaseHR + 1, (int(k) - 1) % RoundsPerPhaseHR
}

// Name implements model.Algorithm.
func (h *hurfinRaynal) Name() string { return HurfinRaynalName }

// StartRound implements model.Algorithm.
func (h *hurfinRaynal) StartRound(k model.Round) model.Payload {
	phase, pos := phasePosHR(k)
	if pos == 0 {
		if coordOf(phase, h.ctx.N) == h.ctx.Self {
			if v, ok := h.prop.Get(); ok {
				return payload.Propose{V: v}
			}
		}
		return payload.Estimate{Est: h.est, TS: h.ts}
	}
	return payload.AckEst{Est: h.est, TS: h.ts, Ack: h.ackVal}
}

// EndRound implements model.Algorithm.
func (h *hurfinRaynal) EndRound(k model.Round, delivered []model.Message) {
	phase, pos := phasePosHR(k)
	roundMsgs := payload.OfRound(k, delivered)
	if pos == 0 {
		h.ackVal = model.Bottom()
		coord := coordOf(phase, h.ctx.N)
		for _, m := range roundMsgs {
			p, ok := m.Payload.(payload.Propose)
			if !ok || m.From != coord {
				continue
			}
			h.est = p.V
			h.ts = phase
			h.ackVal = model.Some(p.V)
		}
		return
	}
	counts := make(map[model.Value]int)
	for _, m := range roundMsgs {
		a, ok := m.Payload.(payload.AckEst)
		if !ok {
			continue
		}
		if v, some := a.Ack.Get(); some {
			counts[v]++
		}
	}
	for v, cnt := range counts {
		if cnt >= h.ctx.Majority() && h.decided.IsBottom() {
			h.decided = model.Some(v)
		}
	}
	// Refresh the proposal for the next phase if this process coordinates
	// it: pick the estimate with the highest timestamp among the fresh
	// AckEst messages.
	h.prop = model.Bottom()
	if coordOf(phase+1, h.ctx.N) == h.ctx.Self {
		if est, _, ok := payload.BestEstimate(roundMsgs); ok {
			h.prop = model.Some(est)
		}
	}
}

// Decision implements model.Algorithm.
func (h *hurfinRaynal) Decision() (model.Value, bool) { return h.decided.Get() }
