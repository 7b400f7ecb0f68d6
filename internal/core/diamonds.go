package core

import "indulgence/internal/model"

// NewDiamondS returns a Factory for A_{◇S}, the Sect. 5.1 (Fig. 3)
// adaptation of A_{t+2} to an asynchronous round model enriched with the
// eventually strong failure detector ◇S.
//
// The paper obtains A_{◇S} from A_{t+2} by (1) substituting the underlying
// consensus C with a ◇S-based algorithm C′ and (2) modifying the two
// receive steps (Fig. 2, lines 6 and 15) to wait for n−t round messages —
// the most an algorithm may wait for under ◇S, whose accuracy is only
// eventual and weak — instead of additionally waiting for all processes
// not suspected by the (◇P-like) simulated detector. A_{t+2}'s default
// underlying consensus, baseline.NewCT, is already ◇S-based, so (1) is
// the default.
//
// In the lockstep simulator the receive sets are fixed by the adversary
// schedule, so modification (2) changes nothing: the per-round state
// machine of A_{◇S} coincides with A_{t+2} over any given receive set, and
// the fast-decision property (global decision at t+2 in synchronous runs)
// is inherited — exactly the paper's argument that "AS retains the fast
// decision property because it is relevant only in synchronous runs". The
// waiting rule matters in the live runtime, where WaitQuorum selects the
// ◇S discipline (wait for n−t) and WaitUnsuspected the ◇P discipline
// (additionally wait for every unsuspected process).
func NewDiamondS() model.Factory {
	return New(Options{name: DiamondSName})
}

// WaitPolicy selects the receive-phase waiting discipline of the live
// runtime (internal/runtime); it realizes the line-6/line-15 modification
// of Fig. 3.
type WaitPolicy int

const (
	// WaitUnsuspected waits for at least n−t round messages and for a
	// message from every process the local failure detector does not
	// suspect (the A_{t+2}/◇P discipline).
	WaitUnsuspected WaitPolicy = iota + 1
	// WaitQuorum waits for exactly n−t round messages (the A_{◇S}
	// discipline).
	WaitQuorum
)

// String implements fmt.Stringer.
func (w WaitPolicy) String() string {
	switch w {
	case WaitUnsuspected:
		return "wait-unsuspected"
	case WaitQuorum:
		return "wait-quorum"
	default:
		return "wait-unknown"
	}
}
