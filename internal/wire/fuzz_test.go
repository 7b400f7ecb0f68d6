package wire

import (
	"reflect"
	"testing"

	"indulgence/internal/model"
)

// FuzzDecodeInstanceMessage hammers the frame decode path with arbitrary
// bytes: it must never panic, and whenever it reports success the result
// must re-encode to an equivalent frame (decode/encode/decode fixed
// point). The seed corpus covers both pre-group frame versions and the
// marker-byte boundary cases.
func FuzzDecodeInstanceMessage(f *testing.F) {
	for _, seed := range instanceMessageSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, frame []byte) {
		group, instance, m, n, err := decodeFrame(frame)
		if err != nil {
			return
		}
		if n > len(frame) {
			t.Fatalf("consumed %d of %d bytes", n, len(frame))
		}
		// Group 0 re-encodes under the explicit instance envelope, never
		// bare: a decoded sender need not be a valid process, and a bare
		// frame led by one could itself open with a marker byte.
		hdr := AppendInstanceHeader(nil, instance)
		if group != 0 {
			hdr = appendGroupHeader(nil, group, instance)
		}
		reenc, err := EncodeMessage(hdr, m)
		if err != nil {
			t.Fatalf("re-encode of decoded message failed: %v", err)
		}
		g2, inst2, m2, _, err := decodeFrame(reenc)
		if err != nil {
			t.Fatalf("decode of re-encoding failed: %v", err)
		}
		if g2 != group || inst2 != instance || !reflect.DeepEqual(m2, m) {
			t.Fatalf("decode/encode not a fixed point: (%d, %d, %v) vs (%d, %d, %v)",
				group, instance, m, g2, inst2, m2)
		}
	})
}

// FuzzDecodeDecisionRecord is the journal-record counterpart: arbitrary
// bytes must never panic the decoder, and every successful decode must be
// a decode/encode fixed point that consumes exactly the bytes the encoder
// would emit.
func FuzzDecodeDecisionRecord(f *testing.F) {
	for _, seed := range decisionRecordSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		rec, n, err := DecodeDecisionRecord(b)
		if err != nil {
			return
		}
		if n > len(b) {
			t.Fatalf("consumed %d of %d bytes", n, len(b))
		}
		reenc := AppendDecisionRecord(nil, rec)
		rec2, n2, err := DecodeDecisionRecord(reenc)
		if err != nil {
			t.Fatalf("decode of re-encoding failed: %v", err)
		}
		if rec2 != rec || n2 != len(reenc) {
			t.Fatalf("decode/encode not a fixed point: %+v (%d) vs %+v (%d)",
				rec, n, rec2, n2)
		}
	})
}

// decodeTraceRecord dispatches on KindOf the way workload.DecodeTrace
// does, boxing the record so one fuzz body covers the three kinds.
func decodeTraceRecord(b []byte) (any, int, error) {
	switch KindOf(b) {
	case KindTraceHeader:
		return boxed(DecodeTraceHeaderRecord(b))
	case KindTraceEvent:
		return boxed(DecodeTraceEventRecord(b))
	case KindTraceOutcome:
		return boxed(DecodeTraceOutcomeRecord(b))
	default:
		return nil, 0, ErrUnknownPayload
	}
}

func boxed[R any](r R, n int, err error) (any, int, error) { return r, n, err }

// FuzzDecodeTraceRecord covers the workload trace file's three record
// kinds through the kind dispatch: arbitrary bytes must never
// panic any of the decoders, every accepted record must satisfy its
// bounds (class caps, string caps, status range), and re-encoding must
// be a decode fixed point that consumes exactly the bytes the encoder
// emits — the property the trace replayer's byte-identity contract
// rests on.
func FuzzDecodeTraceRecord(f *testing.F) {
	for _, seed := range traceRecordSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		rec, n, err := decodeTraceRecord(b)
		if err != nil {
			return
		}
		if n > len(b) {
			t.Fatalf("consumed %d of %d bytes", n, len(b))
		}
		var reenc []byte
		switch r := rec.(type) {
		case TraceHeaderRecord:
			reenc, err = AppendTraceHeaderRecord(nil, r)
		case TraceEventRecord:
			if r.Class > MaxClassValue {
				t.Fatalf("accepted event class %d", r.Class)
			}
			reenc = AppendTraceEventRecord(nil, r)
		case TraceOutcomeRecord:
			if r.Status > TraceFailed {
				t.Fatalf("accepted outcome status %d", r.Status)
			}
			reenc = AppendTraceOutcomeRecord(nil, r)
		default:
			t.Fatalf("unknown decoded kind %T", rec)
		}
		if err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		rec2, n2, err := decodeTraceRecord(reenc)
		if err != nil {
			t.Fatalf("decode of re-encoding failed: %v", err)
		}
		if rec2 != rec || n2 != len(reenc) {
			t.Fatalf("decode/encode not a fixed point: %+v (%d) vs %+v (%d)",
				rec, n, rec2, n2)
		}
	})
}

// FuzzDecodeStartRecord covers the claim-record decoder, whose optional
// algorithm tag makes it the one variable-length record kind: arbitrary
// bytes must never panic it, every accepted record must satisfy the tag
// bound, and re-encoding must be a decode fixed point (legacy inputs
// without the tag-length byte decode as Alg == "" and re-encode to the
// canonical tagged form, which must itself decode back unchanged).
func FuzzDecodeStartRecord(f *testing.F) {
	for _, seed := range startRecordSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		rec, n, err := DecodeStartRecord(b)
		if err != nil {
			return
		}
		if n > len(b) {
			t.Fatalf("consumed %d of %d bytes", n, len(b))
		}
		if len(rec.Alg) > MaxAlgNameLen {
			t.Fatalf("accepted a %d-byte algorithm tag", len(rec.Alg))
		}
		reenc, err := AppendStartRecord(nil, rec)
		if err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		rec2, n2, err := DecodeStartRecord(reenc)
		if err != nil {
			t.Fatalf("decode of re-encoding failed: %v", err)
		}
		if rec2 != rec || n2 != len(reenc) {
			t.Fatalf("decode/encode not a fixed point: %+v (%d) vs %+v (%d)",
				rec, n, rec2, n2)
		}
	})
}

// FuzzDecodeDecisionTraceRecord covers the introspection record's
// decoder: arbitrary bytes must never panic it, every accepted record
// must satisfy the tag, count and mask bounds, and re-encoding must be
// a decode fixed point.
func FuzzDecodeDecisionTraceRecord(f *testing.F) {
	for _, seed := range decisionTraceRecordSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		rec, n, err := DecodeDecisionTraceRecord(b)
		if err != nil {
			return
		}
		if n > len(b) {
			t.Fatalf("consumed %d of %d bytes", n, len(b))
		}
		if len(rec.Chosen) > MaxAlgNameLen || len(rec.NotTaken) > MaxTraceAlternatives ||
			rec.Level > MaxTraceAlternatives || rec.ShedMask > MaxShedMask {
			t.Fatalf("accepted an out-of-range record: %+v", rec)
		}
		reenc, err := AppendDecisionTraceRecord(nil, rec)
		if err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		rec2, n2, err := DecodeDecisionTraceRecord(reenc)
		if err != nil {
			t.Fatalf("decode of re-encoding failed: %v", err)
		}
		if !reflect.DeepEqual(rec2, rec) || n2 != len(reenc) {
			t.Fatalf("decode/encode not a fixed point: %+v (%d) vs %+v (%d)",
				rec, n, rec2, n2)
		}
	})
}

// FuzzDecodeHelloRecord covers the TCP handshake decoder, the one record
// kind read straight off the network: arbitrary bytes must never panic
// it, every accepted hello must satisfy the cluster-ID and sender
// bounds, and re-encoding must be a decode fixed point.
func FuzzDecodeHelloRecord(f *testing.F) {
	for _, seed := range helloRecordSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		rec, n, err := DecodeHelloRecord(b)
		if err != nil {
			return
		}
		if n > len(b) {
			t.Fatalf("consumed %d of %d bytes", n, len(b))
		}
		if len(rec.Cluster) > MaxClusterIDLen || rec.Sender < 1 || rec.Sender > model.MaxProcesses {
			t.Fatalf("accepted an out-of-range hello: %+v", rec)
		}
		reenc, err := AppendHelloRecord(nil, rec)
		if err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		rec2, n2, err := DecodeHelloRecord(reenc)
		if err != nil {
			t.Fatalf("decode of re-encoding failed: %v", err)
		}
		if rec2 != rec || n2 != len(reenc) {
			t.Fatalf("decode/encode not a fixed point: %+v (%d) vs %+v (%d)",
				rec, n, rec2, n2)
		}
	})
}
