package payload

import "indulgence/internal/model"

// OfRound returns the messages among delivered that were sent in round k
// (in ES, delivered may also contain older, delayed messages). delivered
// must be sorted by (Round, From) as the Algorithm contract guarantees, so
// the round-k messages form a contiguous block and the result is a
// read-only subslice of delivered — no allocation.
func OfRound(k model.Round, delivered []model.Message) []model.Message {
	lo := 0
	for lo < len(delivered) && delivered[lo].Round < k {
		lo++
	}
	hi := lo
	for hi < len(delivered) && delivered[hi].Round == k {
		hi++
	}
	return delivered[lo:hi:hi]
}

// BestEstimate returns the estimate with the highest timestamp (ties broken
// towards the smallest value) among the Estimate and AckEst payloads in
// msgs. It is the coordinator selection rule of the rotating-coordinator
// algorithms. ok is false if msgs contains no estimates.
func BestEstimate(msgs []model.Message) (est model.Value, ts int, ok bool) {
	for _, m := range msgs {
		var (
			e model.Value
			t int
		)
		switch p := m.Payload.(type) {
		case Estimate:
			e, t = p.Est, p.TS
		case AckEst:
			e, t = p.Est, p.TS
		default:
			continue
		}
		if !ok || t > ts || (t == ts && e < est) {
			est, ts, ok = e, t, true
		}
	}
	return est, ts, ok
}
