package wire

import (
	"encoding/binary"
	"fmt"
)

// MaxTraceAlternatives bounds the not-taken rungs a decision-trace
// record may carry; it comfortably exceeds the algorithm ladder's
// length (three rungs plus the probe).
const MaxTraceAlternatives = 8

// MaxShedMask bounds the admission mask a decision-trace record may
// carry: one bit per SLO class, classes 0..MaxClassValue.
const MaxShedMask = 1<<(MaxClassValue+1) - 1

// maxTraceNanos bounds the durations a decision-trace record may carry.
const maxTraceNanos = 1 << 62

// DecisionTraceRecord captures why a service launched one consensus
// instance the way it did: the rung the selector chose (and the rungs
// it did not take), the controller's latency baseline and batch
// shape, and the admission state — everything needed to audit a
// demotion after the fact or replay the choice against a different
// policy. The journal writes it with the same "before any frame
// touches the network" ordering as the start claim it accompanies.
type DecisionTraceRecord struct {
	// Instance is the consensus instance the choice launched.
	Instance uint64
	// Group is the consensus group the instance belongs to (0 for
	// single-group deployments).
	Group uint64
	// Level is the selector's rung index at choice time (0 is the
	// fastest, most indulgent rung).
	Level int
	// Chosen names the algorithm the instance was launched with.
	Chosen string
	// NotTaken names the ladder's other rungs, in ladder order — the
	// counterfactual set a tuner can replay the instance against.
	NotTaken []string
	// Suspicions is the failure-detector suspicion count in the
	// controller's current observation window at choice time.
	Suspicions uint64
	// QueueLen and QueueCap are the proposal-intake occupancy and
	// capacity at choice time.
	QueueLen uint64
	QueueCap uint64
	// BatchFill is the cut batch's fill as a percentage of the batch
	// limit in force; BatchLimit is that limit.
	BatchFill  int
	BatchLimit int
	// LingerNanos is the batch linger in force at choice time.
	LingerNanos int64
	// EWMANanos is the controller's decision-latency EWMA baseline at
	// choice time (0 until the first decision lands).
	EWMANanos int64
	// ShedMask is the admission state at choice time: bit c set means
	// SLO class c was being shed.
	ShedMask uint64
}

// AppendDecisionTraceRecord appends the encoding of r to dst and
// returns the extended slice. The layout is the trace marker followed
// by uvarint instance, group, level, the uvarint-length-prefixed
// chosen algorithm, a uvarint count of not-taken rungs each length-
// prefixed the same way, and uvarint suspicions, queue length, queue
// capacity, batch fill, batch limit, linger, EWMA and shed mask.
// Negative durations clamp to zero; every field is always present
// (this record kind has no legacy layout to stay compatible with).
func AppendDecisionTraceRecord(dst []byte, r DecisionTraceRecord) ([]byte, error) {
	if len(r.Chosen) > MaxAlgNameLen {
		return nil, fmt.Errorf("%w: algorithm tag of %d bytes", ErrFrameTooLarge, len(r.Chosen))
	}
	if len(r.NotTaken) > MaxTraceAlternatives {
		return nil, fmt.Errorf("%w: %d not-taken rungs", ErrFrameTooLarge, len(r.NotTaken))
	}
	if r.Level < 0 || r.Level > MaxTraceAlternatives ||
		r.BatchFill < 0 || r.BatchFill > MaxFrameSize ||
		r.BatchLimit < 0 || r.BatchLimit > MaxFrameSize ||
		r.QueueLen > MaxFrameSize || r.QueueCap > MaxFrameSize ||
		r.ShedMask > MaxShedMask {
		return nil, fmt.Errorf("%w: decision-trace field out of range", ErrUnknownPayload)
	}
	dst = append(dst, decisionTraceMarker)
	dst = binary.AppendUvarint(dst, r.Instance)
	dst = binary.AppendUvarint(dst, r.Group)
	dst = binary.AppendUvarint(dst, uint64(r.Level))
	dst = binary.AppendUvarint(dst, uint64(len(r.Chosen)))
	dst = append(dst, r.Chosen...)
	dst = binary.AppendUvarint(dst, uint64(len(r.NotTaken)))
	for _, alg := range r.NotTaken {
		if len(alg) > MaxAlgNameLen {
			return nil, fmt.Errorf("%w: algorithm tag of %d bytes", ErrFrameTooLarge, len(alg))
		}
		dst = binary.AppendUvarint(dst, uint64(len(alg)))
		dst = append(dst, alg...)
	}
	dst = binary.AppendUvarint(dst, r.Suspicions)
	dst = binary.AppendUvarint(dst, r.QueueLen)
	dst = binary.AppendUvarint(dst, r.QueueCap)
	dst = binary.AppendUvarint(dst, uint64(r.BatchFill))
	dst = binary.AppendUvarint(dst, uint64(r.BatchLimit))
	dst = binary.AppendUvarint(dst, uint64(max(r.LingerNanos, 0)))
	dst = binary.AppendUvarint(dst, uint64(max(r.EWMANanos, 0)))
	dst = binary.AppendUvarint(dst, r.ShedMask)
	return dst, nil
}

// Clamped returns r with every annotation field forced into the bounds
// AppendDecisionTraceRecord enforces, so appending the result cannot
// fail: introspection context must never make a journal write fail for
// its label's sake. Over-long names in r.NotTaken are cut in place.
func (r DecisionTraceRecord) Clamped() DecisionTraceRecord {
	clampAlg := func(s string) string { return s[:min(len(s), MaxAlgNameLen)] }
	r.Chosen = clampAlg(r.Chosen)
	r.NotTaken = r.NotTaken[:min(len(r.NotTaken), MaxTraceAlternatives)]
	for i, alg := range r.NotTaken {
		r.NotTaken[i] = clampAlg(alg)
	}
	r.Level = max(0, min(r.Level, MaxTraceAlternatives))
	r.BatchFill = max(0, min(r.BatchFill, MaxFrameSize))
	r.BatchLimit = max(0, min(r.BatchLimit, MaxFrameSize))
	r.QueueLen = min(r.QueueLen, MaxFrameSize)
	r.QueueCap = min(r.QueueCap, MaxFrameSize)
	r.LingerNanos = max(0, min(r.LingerNanos, maxTraceNanos))
	r.EWMANanos = max(0, min(r.EWMANanos, maxTraceNanos))
	r.ShedMask &= MaxShedMask
	return r
}

// DecodeDecisionTraceRecord decodes one decision-trace record from b,
// returning it and the number of bytes consumed.
func DecodeDecisionTraceRecord(b []byte) (DecisionTraceRecord, int, error) {
	c := openRecord(b, KindDecisionTrace)
	r := DecisionTraceRecord{
		Instance: c.uvarint("instance"),
		Group:    c.uvarint("group"),
		Level:    int(c.bounded("level", MaxTraceAlternatives)),
		Chosen:   c.str("chosen algorithm", MaxAlgNameLen),
	}
	for i := c.bounded("not-taken count", MaxTraceAlternatives); i > 0; i-- {
		r.NotTaken = append(r.NotTaken, c.str("not-taken algorithm", MaxAlgNameLen))
	}
	r.Suspicions = c.uvarint("suspicions")
	r.QueueLen = c.bounded("queue length", MaxFrameSize)
	r.QueueCap = c.bounded("queue capacity", MaxFrameSize)
	r.BatchFill = int(c.bounded("batch fill", MaxFrameSize))
	r.BatchLimit = int(c.bounded("batch limit", MaxFrameSize))
	r.LingerNanos = int64(c.bounded("linger", maxTraceNanos))
	r.EWMANanos = int64(c.bounded("ewma", maxTraceNanos))
	r.ShedMask = c.bounded("shed mask", MaxShedMask)
	if c.err != nil {
		return DecisionTraceRecord{}, 0, c.err
	}
	return r, c.off, nil
}
