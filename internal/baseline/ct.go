package baseline

import (
	"fmt"

	"indulgence/internal/model"
	"indulgence/internal/payload"
)

// CTName is the algorithm name reported by CT instances.
const CTName = "CT-DiamondS"

// RoundsPerPhaseCT is the number of rounds in one CT coordinator phase.
const RoundsPerPhaseCT = 3

// ct is a Chandra–Toueg-style rotating-coordinator ◇S consensus transposed
// to the ES round model, the paper's underlying consensus module C
// (footnote 7: "any round-based ◇P or ◇S consensus algorithm transposed to
// the ES model"). Phase r (coordinator c = ((r−1) mod n) + 1) spans three
// rounds:
//
//	round 3r−2 (A): every process broadcasts its timestamped estimate;
//	                the coordinator selects the estimate with the highest
//	                timestamp (ties towards the smallest value);
//	round 3r−1 (B): the coordinator broadcasts its proposal; a process
//	                that receives it adopts (est, ts) := (v, r);
//	round 3r   (C): every process acknowledges the proposal it adopted
//	                (⊥ if it suspected the coordinator, i.e. the proposal
//	                did not arrive in-round); a process that observes a
//	                majority of positive acknowledgements for v decides v.
//
// Suspicion is the simulated ◇S of Sect. 4: the coordinator is suspected
// exactly when its round message is missing. After the GSR, the first
// phase with a correct coordinator decides, so termination holds in every
// ES run; the timestamp locking gives uniform agreement with t < n/2.
type ct struct {
	ctx     model.ProcessContext
	est     model.Value
	ts      int
	prop    model.OptValue // coordinator: proposal for the current phase
	ackVal  model.OptValue // acknowledgement to send in round C
	decided model.OptValue
}

var _ model.Algorithm = (*ct)(nil)
var _ model.Resetter = (*ct)(nil)

// NewCT returns a Factory for the CT underlying consensus. It requires the
// indulgence resilience t < n/2.
func NewCT() model.Factory {
	return func(ctx model.ProcessContext, proposal model.Value) (model.Algorithm, error) {
		if err := ctx.Validate(); err != nil {
			return nil, err
		}
		if !ctx.MajorityCorrect() {
			return nil, fmt.Errorf("baseline: CT requires t < n/2, got t=%d n=%d", ctx.T, ctx.N)
		}
		c := &ct{ctx: ctx}
		c.Reset(proposal)
		return c, nil
	}
}

// Reset implements model.Resetter; the factory builds through it too.
func (c *ct) Reset(proposal model.Value) { *c = ct{ctx: c.ctx, est: proposal} }

// phasePos returns the 1-based phase and the position (0=A, 1=B, 2=C) of
// round k.
func phasePosCT(k model.Round) (phase, pos int) {
	return (int(k)-1)/RoundsPerPhaseCT + 1, (int(k) - 1) % RoundsPerPhaseCT
}

// coordOf returns the coordinator of the given 1-based phase.
func coordOf(phase, n int) model.ProcessID {
	return model.ProcessID((phase-1)%n + 1)
}

// Name implements model.Algorithm.
func (c *ct) Name() string { return CTName }

// StartRound implements model.Algorithm.
func (c *ct) StartRound(k model.Round) model.Payload {
	phase, pos := phasePosCT(k)
	switch pos {
	case 0:
		return payload.Estimate{Est: c.est, TS: c.ts}
	case 1:
		if coordOf(phase, c.ctx.N) == c.ctx.Self {
			if v, ok := c.prop.Get(); ok {
				return payload.Propose{V: v}
			}
		}
		// Non-coordinators (and a coordinator with nothing to propose,
		// which cannot happen since it always hears itself) send their
		// estimate as the round's dummy message (footnote 1).
		return payload.Estimate{Est: c.est, TS: c.ts}
	default:
		return payload.Ack{Val: c.ackVal}
	}
}

// EndRound implements model.Algorithm.
func (c *ct) EndRound(k model.Round, delivered []model.Message) {
	phase, pos := phasePosCT(k)
	roundMsgs := payload.OfRound(k, delivered)
	switch pos {
	case 0:
		c.prop = model.Bottom()
		if coordOf(phase, c.ctx.N) == c.ctx.Self {
			if est, _, ok := payload.BestEstimate(roundMsgs); ok {
				c.prop = model.Some(est)
			}
		}
	case 1:
		c.ackVal = model.Bottom()
		coord := coordOf(phase, c.ctx.N)
		for _, m := range roundMsgs {
			p, ok := m.Payload.(payload.Propose)
			if !ok || m.From != coord {
				continue
			}
			c.est = p.V
			c.ts = phase
			c.ackVal = model.Some(p.V)
		}
	default:
		counts := make(map[model.Value]int)
		for _, m := range roundMsgs {
			a, ok := m.Payload.(payload.Ack)
			if !ok {
				continue
			}
			if v, some := a.Val.Get(); some {
				counts[v]++
			}
		}
		for v, cnt := range counts {
			if cnt >= c.ctx.Majority() {
				c.decide(v)
			}
		}
	}
}

func (c *ct) decide(v model.Value) {
	if c.decided.IsBottom() {
		c.decided = model.Some(v)
	}
}

// Decision implements model.Algorithm.
func (c *ct) Decision() (model.Value, bool) { return c.decided.Get() }
