// Package payload defines the message payloads exchanged by the consensus
// algorithms in this repository. Payloads are immutable values
// implementing model.Payload: a stable Kind tag and a deterministic digest
// encoding (used for run digests and indistinguishability checks); every
// receiver of a message reads the one payload its sender built. Inbox is
// the ES round model's receive-set rule, shared by the simulator and the
// live node, and the one place a DECIDE is read: both round engines adopt
// and relay DECIDE through it, so no algorithm sends or scans for one.
package payload

import (
	"fmt"
	"slices"

	"indulgence/internal/model"
)

// Kind tags. Each payload type has a unique tag, shared with the wire
// codec.
const (
	KindValues      = "values"  // Values: FloodSet value sets
	KindEstHalt     = "esthalt" // EstHalt: A_{t+2}/FloodSetWS Phase-1 ESTIMATE
	KindNewEstimate = "newest"  // NewEstimate: A_{t+2} round-(t+2) NEWESTIMATE
	KindDecide      = "decide"  // Decide: decision relay
	KindEstimate    = "est"     // Estimate: (est, ts) full-information exchange
	KindPropose     = "prop"    // Propose: coordinator proposal
	KindAck         = "ack"     // Ack: coordinator-phase acknowledgement
	KindAckEst      = "ackest"  // AckEst: Hurfin–Raynal combined ack + estimate
	KindAdopt       = "adopt"   // Adopt: AMR/A_{f+2} adopted-estimate exchange
	KindWrap        = "wrap"    // Wrap: A_{t+2} delegation to the underlying consensus C
)

// Compile-time interface compliance checks.
var (
	_ model.Payload = Values{}
	_ model.Payload = EstHalt{}
	_ model.Payload = NewEstimate{}
	_ model.Payload = Decide{}
	_ model.Payload = Estimate{}
	_ model.Payload = Propose{}
	_ model.Payload = Ack{}
	_ model.Payload = AckEst{}
	_ model.Payload = Adopt{}
	_ model.Payload = Wrap{}
)

// Values carries a set of proposal values, sorted ascending. It is the
// FloodSet message.
type Values struct {
	// Vals is the sorted value set.
	Vals []model.Value
}

// NewValues returns a Values payload over a defensive sorted copy of vs.
func NewValues(vs []model.Value) Values {
	out := slices.Clone(vs)
	slices.Sort(out)
	return Values{Vals: out}
}

// Kind implements model.Payload.
func (p Values) Kind() string { return KindValues }

// AppendDigest implements model.Payload.
func (p Values) AppendDigest(dst []byte) []byte { return model.AppendDigestValues(dst, p.Vals) }

// String implements fmt.Stringer.
func (p Values) String() string { return fmt.Sprintf("VALUES%v", p.Vals) }

// EstHalt is the Phase-1 ESTIMATE message of A_{t+2} (Fig. 2) and of
// FloodSetWS: the sender's current estimate and its Halt set.
type EstHalt struct {
	// Est is the sender's estimate at the end of the previous round.
	Est model.Value
	// Halt is the sender's Halt set at the end of the previous round.
	Halt model.PIDSet
}

// Kind implements model.Payload.
func (p EstHalt) Kind() string { return KindEstHalt }

// AppendDigest implements model.Payload.
func (p EstHalt) AppendDigest(dst []byte) []byte {
	dst = model.AppendDigestInt(dst, int64(p.Est))
	return model.AppendDigestPIDSet(dst, p.Halt)
}

// String implements fmt.Stringer.
func (p EstHalt) String() string { return fmt.Sprintf("ESTIMATE(est=%d halt=%v)", p.Est, p.Halt) }

// NewEstimate is the round-(t+2) NEWESTIMATE message of A_{t+2}: the new
// estimate nE ∈ V ∪ {⊥}.
type NewEstimate struct {
	// NE is the new estimate; ⊥ signals a detected false suspicion.
	NE model.OptValue
}

// Kind implements model.Payload.
func (p NewEstimate) Kind() string { return KindNewEstimate }

// AppendDigest implements model.Payload.
func (p NewEstimate) AppendDigest(dst []byte) []byte { return model.AppendDigestOptValue(dst, p.NE) }

// String implements fmt.Stringer.
func (p NewEstimate) String() string { return fmt.Sprintf("NEWESTIMATE(%v)", p.NE) }

// Decide announces a decision value. The round engines build it for a
// decided process, which sends it once, in the round after its decision,
// and then halts. A process whose receive set holds one decides its value
// (see Inbox.Decided).
type Decide struct {
	// V is the decided value.
	V model.Value
}

// Kind implements model.Payload.
func (p Decide) Kind() string { return KindDecide }

// AppendDigest implements model.Payload.
func (p Decide) AppendDigest(dst []byte) []byte { return model.AppendDigestInt(dst, int64(p.V)) }

// String implements fmt.Stringer.
func (p Decide) String() string { return fmt.Sprintf("DECIDE(%d)", p.V) }

// Estimate is the timestamped estimate of the rotating-coordinator and
// leader-based algorithms.
type Estimate struct {
	// Est is the sender's current estimate.
	Est model.Value
	// TS is the phase in which the estimate was last adopted from a
	// coordinator (0 = initial).
	TS int
}

// Kind implements model.Payload.
func (p Estimate) Kind() string { return KindEstimate }

// AppendDigest implements model.Payload.
func (p Estimate) AppendDigest(dst []byte) []byte {
	dst = model.AppendDigestInt(dst, int64(p.Est))
	return model.AppendDigestInt(dst, int64(p.TS))
}

// String implements fmt.Stringer.
func (p Estimate) String() string { return fmt.Sprintf("EST(est=%d ts=%d)", p.Est, p.TS) }

// Propose is a coordinator's proposal for its phase.
type Propose struct {
	// V is the proposed value.
	V model.Value
}

// Kind implements model.Payload.
func (p Propose) Kind() string { return KindPropose }

// AppendDigest implements model.Payload.
func (p Propose) AppendDigest(dst []byte) []byte { return model.AppendDigestInt(dst, int64(p.V)) }

// String implements fmt.Stringer.
func (p Propose) String() string { return fmt.Sprintf("PROPOSE(%d)", p.V) }

// Ack acknowledges (or, with ⊥, refuses) a coordinator proposal.
type Ack struct {
	// Val is the acknowledged proposal value, or ⊥ for a negative
	// acknowledgement (the coordinator was suspected).
	Val model.OptValue
}

// Kind implements model.Payload.
func (p Ack) Kind() string { return KindAck }

// AppendDigest implements model.Payload.
func (p Ack) AppendDigest(dst []byte) []byte { return model.AppendDigestOptValue(dst, p.Val) }

// String implements fmt.Stringer.
func (p Ack) String() string { return fmt.Sprintf("ACK(%v)", p.Val) }

// AckEst is the Hurfin–Raynal second-round message: an acknowledgement
// combined with the sender's timestamped estimate, so the next coordinator
// always reads fresh estimates.
type AckEst struct {
	// Est is the sender's current estimate.
	Est model.Value
	// TS is the phase in which Est was last adopted.
	TS int
	// Ack is the acknowledged proposal value, or ⊥.
	Ack model.OptValue
}

// Kind implements model.Payload.
func (p AckEst) Kind() string { return KindAckEst }

// AppendDigest implements model.Payload.
func (p AckEst) AppendDigest(dst []byte) []byte {
	dst = model.AppendDigestInt(dst, int64(p.Est))
	dst = model.AppendDigestInt(dst, int64(p.TS))
	return model.AppendDigestOptValue(dst, p.Ack)
}

// String implements fmt.Stringer.
func (p AckEst) String() string {
	return fmt.Sprintf("ACKEST(est=%d ts=%d ack=%v)", p.Est, p.TS, p.Ack)
}

// Adopt is the adopted-estimate exchange of AMR and A_{f+2}.
type Adopt struct {
	// Est is the sender's (possibly just adopted) estimate.
	Est model.Value
}

// Kind implements model.Payload.
func (p Adopt) Kind() string { return KindAdopt }

// AppendDigest implements model.Payload.
func (p Adopt) AppendDigest(dst []byte) []byte { return model.AppendDigestInt(dst, int64(p.Est)) }

// String implements fmt.Stringer.
func (p Adopt) String() string { return fmt.Sprintf("ADOPT(%d)", p.Est) }

// Wrap carries a message of the underlying consensus algorithm C inside
// Phase 2 of A_{t+2} (rounds t+3 and later). Inner payloads keep their own
// kinds; Wrap adds a layer so the DECIDE relay and C traffic coexist.
type Wrap struct {
	// Inner is the underlying algorithm's payload (may be nil for a
	// dummy round message).
	Inner model.Payload
}

// Kind implements model.Payload.
func (p Wrap) Kind() string { return KindWrap }

// AppendDigest implements model.Payload.
func (p Wrap) AppendDigest(dst []byte) []byte {
	if p.Inner == nil {
		return model.AppendDigestString(dst, "")
	}
	dst = model.AppendDigestString(dst, p.Inner.Kind())
	return p.Inner.AppendDigest(dst)
}

// String implements fmt.Stringer.
func (p Wrap) String() string { return fmt.Sprintf("C[%v]", p.Inner) }
