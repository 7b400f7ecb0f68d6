package baseline

import (
	"fmt"

	"indulgence/internal/fd"
	"indulgence/internal/model"
	"indulgence/internal/payload"
)

// AMRName is the algorithm name reported by AMR instances.
const AMRName = "AMR-Leader"

// RoundsPerAttemptAMR is the number of rounds in one AMR leader attempt.
const RoundsPerAttemptAMR = 2

// amr is the second, leader-based consensus algorithm of Mostefaoui &
// Raynal [14] translated to the ES model exactly as the paper's footnote
// 10 prescribes: the eventual leader primitive is simulated by taking, in
// each round, the minimum process identity among the senders of the
// messages received in that round. A_{f+2} (internal/core) is the paper's
// optimization of this algorithm; the point of the Sect. 6 comparison is
// that a run of AMR that is synchronous after round k with f crashes after
// round k needs k + 2f + 2 rounds, against k + f + 2 for A_{f+2}.
//
// Attempt r spans two rounds:
//
//	round 2r−1 (A): every process broadcasts its estimate; each process
//	                adopts the estimate of its current leader (the minimum
//	                identity heard this round) if the leader was heard;
//	round 2r   (B): every process broadcasts the adopted estimate; a
//	                process receiving n−t identical estimates v decides v;
//	                otherwise it adopts any value appearing at least n−2t
//	                times (unique when t < n/3), or the minimum received.
//
// Requires t < n/3 (the quorum-intersection observation of Sect. 6).
type amr struct {
	ctx     model.ProcessContext
	est     model.Value
	decided model.OptValue
}

var _ model.Algorithm = (*amr)(nil)
var _ model.Resetter = (*amr)(nil)

// NewAMR returns a Factory for the AMR leader-based baseline. It requires
// t < n/3.
func NewAMR() model.Factory {
	return func(ctx model.ProcessContext, proposal model.Value) (model.Algorithm, error) {
		if err := ctx.Validate(); err != nil {
			return nil, err
		}
		if 3*ctx.T >= ctx.N {
			return nil, fmt.Errorf("baseline: AMR requires t < n/3, got t=%d n=%d", ctx.T, ctx.N)
		}
		a := &amr{ctx: ctx}
		a.Reset(proposal)
		return a, nil
	}
}

// Reset implements model.Resetter; the factory builds through it too.
func (a *amr) Reset(proposal model.Value) { *a = amr{ctx: a.ctx, est: proposal} }

// Name implements model.Algorithm.
func (a *amr) Name() string { return AMRName }

// StartRound implements model.Algorithm.
func (a *amr) StartRound(k model.Round) model.Payload {
	if (int(k)-1)%RoundsPerAttemptAMR == 0 {
		return payload.Estimate{Est: a.est}
	}
	return payload.Adopt{Est: a.est}
}

// EndRound implements model.Algorithm.
func (a *amr) EndRound(k model.Round, delivered []model.Message) {
	roundMsgs := payload.OfRound(k, delivered)
	if (int(k)-1)%RoundsPerAttemptAMR == 0 {
		// Leader round: adopt the estimate of the minimum identity heard.
		leader := fd.Leader(k, roundMsgs)
		for _, m := range roundMsgs {
			e, ok := m.Payload.(payload.Estimate)
			if !ok || m.From != leader {
				continue
			}
			a.est = e.Est
		}
		return
	}
	// Adoption round: decide on n−t identical values, adopt an (n−2t)-
	// plurality, else the minimum. The pick is deterministic (highest
	// count, ties towards the smallest value): when a decision is possible
	// somewhere, the (n−2t)-plurality value is unique by the t < n/3
	// observation, and otherwise any deterministic choice is safe.
	counts := make(map[model.Value]int)
	var minVal, bestVal model.Value
	bestCnt := 0
	seen := false
	for _, m := range roundMsgs {
		ad, ok := m.Payload.(payload.Adopt)
		if !ok {
			continue
		}
		counts[ad.Est]++
		if cnt := counts[ad.Est]; cnt > bestCnt || (cnt == bestCnt && ad.Est < bestVal) {
			bestVal, bestCnt = ad.Est, cnt
		}
		if !seen || ad.Est < minVal {
			minVal, seen = ad.Est, true
		}
	}
	if !seen {
		return
	}
	switch {
	case bestCnt >= a.ctx.N-a.ctx.T:
		a.decided = model.Some(bestVal)
	case bestCnt >= a.ctx.N-2*a.ctx.T:
		a.est = bestVal
	default:
		a.est = minVal
	}
}

// Decision implements model.Algorithm.
func (a *amr) Decision() (model.Value, bool) { return a.decided.Get() }
