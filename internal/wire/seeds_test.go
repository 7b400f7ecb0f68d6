package wire

import (
	"encoding/binary"

	"indulgence/internal/model"
	"indulgence/internal/payload"
)

// The f.Add seeds of this package's fuzz targets, one function per
// target, so the targets and the decode.golden accept-set pin
// (golden_test.go) see the same inputs in the same order.

// mustEncode unwraps an encoder result whose inputs are valid by
// construction.
func mustEncode(b []byte, err error) []byte {
	if err != nil {
		panic(err)
	}
	return b
}

// appendGroupHeader appends the envelope header the sharded mux once
// wrote for (group, instance), and StripGroup still reads: group 0 the
// pre-group layouts (nothing for instance 0, the version-1 instance
// envelope otherwise), any other group the version-2 group envelope.
// Production no longer writes it; the tests and fuzz seeds build
// version-2 frames with it.
func appendGroupHeader(dst []byte, group, instance uint64) []byte {
	if group == 0 {
		if instance == 0 {
			return dst
		}
		return AppendInstanceHeader(dst, instance)
	}
	dst = append(dst, groupMarker)
	dst = binary.AppendUvarint(dst, group)
	return binary.AppendUvarint(dst, instance)
}

// groupFrame is m addressed to (group, instance): appendGroupHeader then
// the bare message.
func groupFrame(group, instance uint64, m model.Message) []byte {
	return mustEncode(EncodeMessage(appendGroupHeader(nil, group, instance), m))
}

// decodeFrame is the composition production runs on every received
// frame (the mux strips the envelope, the node decodes the message):
// group, instance, message and the bytes consumed.
func decodeFrame(b []byte) (group, instance uint64, m model.Message, n int, err error) {
	group, instance, inner, err := StripGroup(b)
	if err != nil {
		return 0, 0, model.Message{}, 0, err
	}
	m, used, err := DecodeMessage(inner)
	if err != nil {
		return 0, 0, model.Message{}, 0, err
	}
	return group, instance, m, len(b) - len(inner) + used, nil
}

var overlongUvarint = []byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01}

func instanceMessageSeeds() [][]byte {
	return [][]byte{
		mustEncode(EncodeMessage(nil, model.Message{From: 1, Round: 1, Payload: nil})),
		mustEncode(EncodeMessage(nil, model.Message{From: 64, Round: 7, Payload: payload.Decide{V: -3}})),
		mustEncode(EncodeInstanceMessage(nil, 0, model.Message{From: 2, Round: 2, Payload: payload.Propose{V: 9}})),
		mustEncode(EncodeInstanceMessage(nil, 1<<40, model.Message{From: 3, Round: 3,
			Payload: payload.EstHalt{Est: 1, Halt: model.NewPIDSet(1, 2)}})),
		{instanceMarker},
		append([]byte{instanceMarker}, overlongUvarint...),
	}
}

func groupEnvelopeSeeds() [][]byte {
	m := model.Message{From: 3, Round: 2, Payload: payload.Propose{V: 8}}
	return [][]byte{
		mustEncode(EncodeMessage(nil, m)),
		mustEncode(EncodeInstanceMessage(nil, 77, m)),
		groupFrame(1, 0, m),
		groupFrame(4, 1<<33, m),
		AppendDecisionRecord(nil, DecisionRecord{Instance: 2, Value: 1, Round: 3, Batch: 1, Group: 2}),
		{groupMarker},
		append([]byte{groupMarker}, overlongUvarint...),
	}
}

func decisionRecordSeeds() [][]byte {
	return [][]byte{
		AppendDecisionRecord(nil, DecisionRecord{}),
		AppendDecisionRecord(nil, DecisionRecord{Instance: 1, Value: 7, Round: 4, Batch: 1}),
		AppendDecisionRecord(nil, DecisionRecord{Instance: 1<<64 - 1, Value: -3, Round: 300, Batch: 8}),
		AppendDecisionRecord(nil, DecisionRecord{Instance: 4, Value: 9, Round: 2, Batch: 3, Group: 2, Class: 3}),
		AppendDecisionRecord(nil, DecisionRecord{Instance: 5, Value: 1, Round: 1, Batch: 1, Class: 7}),
		{recordMarker},
		append([]byte{recordMarker}, overlongUvarint...),
	}
}

func startRecordSeeds() [][]byte {
	return [][]byte{
		mustEncode(AppendStartRecord(nil, StartRecord{})),
		mustEncode(AppendStartRecord(nil, StartRecord{Instance: 7, Alg: "A_f+2"})),
		mustEncode(AppendStartRecord(nil, StartRecord{Instance: 1<<64 - 1, Alg: "A_t+2+ff"})),
		{startMarker, 0x07},       // legacy: no tag length
		{startMarker, 0x01, 0x7F}, // tag length over the cap
	}
}

func helloRecordSeeds() [][]byte {
	return [][]byte{
		mustEncode(AppendHelloRecord(nil, HelloRecord{Cluster: "", Sender: 1})),
		mustEncode(AppendHelloRecord(nil, HelloRecord{Cluster: "indulgence", Sender: model.MaxProcesses})),
		{helloMarker},
		{helloMarker, 0x02, 'a'},             // cluster id cut short
		{helloMarker, 0x81, 0x02},            // cluster length over the cap
		{helloMarker, 0x00, 0x00},            // sender 0
		{helloMarker, 0x01, 'c', 0x82, 0x01}, // sender past MaxProcesses
	}
}

func traceRecordSeeds() [][]byte {
	return [][]byte{
		mustEncode(AppendTraceHeaderRecord(nil, TraceHeaderRecord{
			Version: TraceFormatVersion, Deterministic: true, Seed: 42,
			N: 5, T: 2, Groups: 3, MaxBatch: 8, MaxInflight: 4,
			LingerNanos: 1e6, TimeoutNanos: 1e7,
			Algorithm: "atplus2", Placement: "hash",
			Classes: 3, Spec: `{"seed":42}`,
		})),
		AppendTraceEventRecord(nil, TraceEventRecord{
			Seq: 9, AtNanos: 1234567, Cohort: 1, Client: 3, Class: 2,
			Key: 1 << 40, Value: -77, Payload: 512,
		}),
		AppendTraceOutcomeRecord(nil, TraceOutcomeRecord{
			Seq: 9, Status: TraceDecided, Instance: 17, Value: -77,
			Round: 4, Batch: 6, Group: 2, Class: 2, LatencyNanos: 2500,
		}),
		AppendTraceOutcomeRecord(nil, TraceOutcomeRecord{Seq: 3, Status: TraceShed, Class: 1}),
		{traceHeaderMarker},
		append([]byte{traceEventMarker}, overlongUvarint...),
		{traceOutcomeMarker, 0x01, 0x03}, // status over the cap
	}
}

func decisionTraceRecordSeeds() [][]byte {
	return [][]byte{
		mustEncode(AppendDecisionTraceRecord(nil, DecisionTraceRecord{})),
		mustEncode(AppendDecisionTraceRecord(nil, DecisionTraceRecord{
			Instance: 7, Chosen: "A_f+2", NotTaken: []string{"A_<>S", "A_t+2"}})),
		mustEncode(AppendDecisionTraceRecord(nil, DecisionTraceRecord{
			Instance: 1<<64 - 1, Group: 3, Level: 2, Chosen: "A_t+2",
			NotTaken: []string{"A_f+2", "A_<>S"}, Suspicions: 42,
			QueueLen: 17, QueueCap: 64, BatchFill: 87, BatchLimit: 32,
			LingerNanos: 2_500_000, EWMANanos: 1_300_000, ShedMask: 0b101,
		})),
		{decisionTraceMarker, 0x00, 0x00, 0x09},             // level over the cap
		{decisionTraceMarker, 0x01, 0x00, 0x00, 0x00, 0x09}, // not-taken count over the cap
		append([]byte{decisionTraceMarker, 0x00, 0x00, 0x00, 0x00}, // ... by 2^63
			0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F, 0x00, 0x00),
	}
}
