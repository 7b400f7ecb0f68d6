package wire

// Trace record kinds: the on-disk format of the workload engine's
// record/replay traces (internal/workload). A trace file is a sequence
// of CRC-framed records — one TraceHeaderRecord describing the run,
// then one TraceEventRecord per recorded proposal arrival and one
// TraceOutcomeRecord per resolved proposal.

import (
	"encoding/binary"
	"fmt"

	"indulgence/internal/model"
)

// TraceFormatVersion is the trace format this package encodes. Decoders
// accept only versions they know; bumping the version is how future
// layouts stay distinguishable.
const TraceFormatVersion = 1

// MaxTraceSpecLen bounds the embedded workload-spec JSON a trace header
// may carry.
const MaxTraceSpecLen = 1 << 16

// Trace outcome statuses.
const (
	// TraceDecided marks a proposal that was decided.
	TraceDecided = 0
	// TraceShed marks a proposal refused by admission control.
	TraceShed = 1
	// TraceFailed marks a proposal that errored without deciding.
	TraceFailed = 2
)

// TraceHeaderRecord is the first record of every trace file: the
// configuration under which the run was recorded, sufficient to rebuild
// an equivalent service stack for replay.
type TraceHeaderRecord struct {
	// Version is the trace format version (TraceFormatVersion).
	Version int
	// Deterministic reports whether the recording ran on the virtual
	// clock behind the deterministic fault fabric, in which case replay
	// must reproduce every outcome byte-identically. Real-clock
	// recordings replay the same arrivals but may batch differently, so
	// replays of them are audited for agreement, not identity.
	Deterministic bool
	// Seed is the workload seed the arrivals were generated from (0 for
	// traces recorded from external load).
	Seed int64
	// N and T are the simulated cluster size and resilience.
	N, T int
	// Groups is the consensus group count of a run recorded by an
	// earlier multi-group build (0 or 1 for a single group, all this
	// build records).
	Groups int
	// MaxBatch, MaxInflight, LingerNanos and TimeoutNanos mirror the
	// service configuration of the recorded run.
	MaxBatch     int
	MaxInflight  int
	LingerNanos  int64
	TimeoutNanos int64
	// Algorithm names the consensus algorithm ("" for the default).
	Algorithm string
	// Placement names the placement policy of a multi-group recording
	// ("" or "round-robin" for a single group).
	Placement string
	// Classes is the number of SLO classes the run admitted (0 for
	// unclassed traffic).
	Classes int
	// Spec is the JSON encoding of the workload spec the arrivals were
	// generated from ("" for traces recorded from external load).
	Spec string
}

// AppendTraceHeaderRecord appends the encoding of r to dst and returns
// the extended slice. The layout is the header marker, uvarint version,
// a flags byte (bit 0 = deterministic), varint seed, uvarint n, t,
// groups, batch, inflight, varint linger and timeout nanos, the
// uvarint-length-prefixed algorithm, placement and spec strings, and a
// trailing uvarint class count.
func AppendTraceHeaderRecord(dst []byte, r TraceHeaderRecord) ([]byte, error) {
	if len(r.Algorithm) > MaxAlgNameLen {
		return nil, fmt.Errorf("%w: trace algorithm of %d bytes", ErrFrameTooLarge, len(r.Algorithm))
	}
	if len(r.Placement) > MaxAlgNameLen {
		return nil, fmt.Errorf("%w: trace placement of %d bytes", ErrFrameTooLarge, len(r.Placement))
	}
	if len(r.Spec) > MaxTraceSpecLen {
		return nil, fmt.Errorf("%w: trace spec of %d bytes", ErrFrameTooLarge, len(r.Spec))
	}
	dst = append(dst, traceHeaderMarker)
	dst = binary.AppendUvarint(dst, uint64(r.Version))
	var flags byte
	if r.Deterministic {
		flags |= 1
	}
	dst = append(dst, flags)
	dst = binary.AppendVarint(dst, r.Seed)
	dst = binary.AppendUvarint(dst, uint64(r.N))
	dst = binary.AppendUvarint(dst, uint64(r.T))
	dst = binary.AppendUvarint(dst, uint64(r.Groups))
	dst = binary.AppendUvarint(dst, uint64(r.MaxBatch))
	dst = binary.AppendUvarint(dst, uint64(r.MaxInflight))
	dst = binary.AppendVarint(dst, r.LingerNanos)
	dst = binary.AppendVarint(dst, r.TimeoutNanos)
	dst = binary.AppendUvarint(dst, uint64(len(r.Algorithm)))
	dst = append(dst, r.Algorithm...)
	dst = binary.AppendUvarint(dst, uint64(len(r.Placement)))
	dst = append(dst, r.Placement...)
	dst = binary.AppendUvarint(dst, uint64(len(r.Spec)))
	dst = append(dst, r.Spec...)
	return binary.AppendUvarint(dst, uint64(r.Classes)), nil
}

// DecodeTraceHeaderRecord decodes one trace header from b, returning it
// and the number of bytes consumed.
func DecodeTraceHeaderRecord(b []byte) (TraceHeaderRecord, int, error) {
	c := openRecord(b, KindTraceHeader)
	if v := c.uvarint("version"); v != TraceFormatVersion {
		c.reject("version", v)
	}
	flags := c.byte("flags")
	if flags > 1 {
		c.reject("flags", flags)
	}
	r := TraceHeaderRecord{
		Version:       TraceFormatVersion,
		Deterministic: flags&1 != 0,
		Seed:          c.varint("seed"),
		N:             int(c.bounded("n", MaxFrameSize)),
		T:             int(c.bounded("t", MaxFrameSize)),
		Groups:        int(c.bounded("groups", MaxFrameSize)),
		MaxBatch:      int(c.bounded("batch", MaxFrameSize)),
		MaxInflight:   int(c.bounded("inflight", MaxFrameSize)),
		LingerNanos:   c.varint("linger"),
		TimeoutNanos:  c.varint("timeout"),
		Algorithm:     c.str("algorithm", MaxAlgNameLen),
		Placement:     c.str("placement", MaxAlgNameLen),
		Spec:          c.str("spec", MaxTraceSpecLen),
		Classes:       int(c.bounded("classes", MaxClassValue+1)),
	}
	if c.err != nil {
		return TraceHeaderRecord{}, 0, c.err
	}
	return r, c.off, nil
}

// TraceEventRecord is one recorded proposal arrival: the instant load
// entered the system, which cohort and client produced it, and the
// proposal itself.
type TraceEventRecord struct {
	// Seq is the arrival's position in the global arrival order; the
	// matching TraceOutcomeRecord carries the same Seq.
	Seq uint64
	// AtNanos is the arrival instant as nanoseconds since run start.
	AtNanos int64
	// Cohort and Client locate the generating stream within the spec.
	Cohort int
	Client int
	// Class is the proposal's SLO class.
	Class int
	// Key is the event's routing key, recorded as generated; it routes
	// nothing (a process runs one consensus group).
	Key uint64
	// Value is the proposed value.
	Value model.Value
	// Payload is the synthetic payload size in bytes.
	Payload int
}

// AppendTraceEventRecord appends the encoding of r to dst and returns
// the extended slice. The layout is the event marker followed by
// uvarint seq, varint at-nanos, uvarint cohort, client and class,
// uvarint key, varint value and uvarint payload size.
func AppendTraceEventRecord(dst []byte, r TraceEventRecord) []byte {
	dst = append(dst, traceEventMarker)
	dst = binary.AppendUvarint(dst, r.Seq)
	dst = binary.AppendVarint(dst, r.AtNanos)
	dst = binary.AppendUvarint(dst, uint64(r.Cohort))
	dst = binary.AppendUvarint(dst, uint64(r.Client))
	dst = binary.AppendUvarint(dst, uint64(r.Class))
	dst = binary.AppendUvarint(dst, r.Key)
	dst = binary.AppendVarint(dst, int64(r.Value))
	return binary.AppendUvarint(dst, uint64(r.Payload))
}

// DecodeTraceEventRecord decodes one trace event from b, returning it
// and the number of bytes consumed.
func DecodeTraceEventRecord(b []byte) (TraceEventRecord, int, error) {
	c := openRecord(b, KindTraceEvent)
	r := TraceEventRecord{
		Seq:     c.uvarint("seq"),
		AtNanos: c.varint("at"),
		Cohort:  int(c.bounded("cohort", MaxFrameSize)),
		Client:  int(c.bounded("client", MaxFrameSize)),
		Class:   int(c.bounded("class", MaxClassValue)),
		Key:     c.uvarint("key"),
		Value:   model.Value(c.varint("value")),
		Payload: int(c.bounded("payload", MaxFrameSize)),
	}
	if c.err != nil {
		return TraceEventRecord{}, 0, c.err
	}
	return r, c.off, nil
}

// TraceOutcomeRecord is the fate of one recorded arrival: the decision
// it was committed under, or the shed/failure it received instead.
type TraceOutcomeRecord struct {
	// Seq matches the TraceEventRecord of the arrival.
	Seq uint64
	// Status is TraceDecided, TraceShed or TraceFailed.
	Status int
	// Instance, Value, Round, Batch, Group and Class mirror the
	// DecisionRecord the proposal was journaled under (zero for shed
	// and failed proposals).
	Instance uint64
	Value    model.Value
	Round    model.Round
	Batch    int
	Group    uint64
	Class    int
	// LatencyNanos is the proposal's submit-to-resolve latency.
	LatencyNanos int64
}

// AppendTraceOutcomeRecord appends the encoding of r to dst and returns
// the extended slice. The layout is the outcome marker followed by
// uvarint seq, uvarint status, uvarint instance, varint value, varint
// round, uvarint batch, group and class, and varint latency nanos.
func AppendTraceOutcomeRecord(dst []byte, r TraceOutcomeRecord) []byte {
	dst = append(dst, traceOutcomeMarker)
	dst = binary.AppendUvarint(dst, r.Seq)
	dst = binary.AppendUvarint(dst, uint64(r.Status))
	dst = binary.AppendUvarint(dst, r.Instance)
	dst = binary.AppendVarint(dst, int64(r.Value))
	dst = binary.AppendVarint(dst, int64(r.Round))
	dst = binary.AppendUvarint(dst, uint64(r.Batch))
	dst = binary.AppendUvarint(dst, r.Group)
	dst = binary.AppendUvarint(dst, uint64(r.Class))
	return binary.AppendVarint(dst, r.LatencyNanos)
}

// DecodeTraceOutcomeRecord decodes one trace outcome from b, returning
// it and the number of bytes consumed.
func DecodeTraceOutcomeRecord(b []byte) (TraceOutcomeRecord, int, error) {
	c := openRecord(b, KindTraceOutcome)
	r := TraceOutcomeRecord{
		Seq:          c.uvarint("seq"),
		Status:       int(c.bounded("status", TraceFailed)),
		Instance:     c.uvarint("instance"),
		Value:        model.Value(c.varint("value")),
		Round:        model.Round(c.varint("round")),
		Batch:        int(c.bounded("batch", MaxFrameSize)),
		Group:        c.uvarint("group"),
		Class:        int(c.bounded("class", MaxClassValue)),
		LatencyNanos: c.varint("latency"),
	}
	if c.err != nil {
		return TraceOutcomeRecord{}, 0, c.err
	}
	return r, c.off, nil
}
