package wire

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"indulgence/internal/model"
	"indulgence/internal/payload"
)

var updateDecodeGolden = flag.Bool("update-decode-golden", false,
	"rewrite testdata/decode.golden from this build's decoders (only for a change that means to move the accept set and says so)")

// goldenDecoders are the decode entry points the golden pins: the seven
// record decoders and the envelope + message composition the mux runs.
var goldenDecoders = []struct {
	kind   string
	decode func([]byte) (any, int, error)
}{
	{"decision", func(b []byte) (any, int, error) { return DecodeDecisionRecord(b) }},
	{"start", func(b []byte) (any, int, error) { return DecodeStartRecord(b) }},
	{"hello", func(b []byte) (any, int, error) { return DecodeHelloRecord(b) }},
	{"trace-header", func(b []byte) (any, int, error) { return DecodeTraceHeaderRecord(b) }},
	{"trace-event", func(b []byte) (any, int, error) { return DecodeTraceEventRecord(b) }},
	{"trace-outcome", func(b []byte) (any, int, error) { return DecodeTraceOutcomeRecord(b) }},
	{"decision-trace", func(b []byte) (any, int, error) { return DecodeDecisionTraceRecord(b) }},
	{"message", func(b []byte) (any, int, error) {
		group, instance, m, n, err := decodeFrame(b)
		return fmt.Sprintf("group=%d instance=%d %+v", group, instance, m), n, err
	}},
}

// goldenCanonical is one full-featured encoding per decoder, every
// optional field present; the golden pins every prefix of each.
func goldenCanonical() map[string][]byte {
	return map[string][]byte{
		"decision": AppendDecisionRecord(nil, DecisionRecord{
			Instance: 300, Value: -5, Round: 4, Batch: 6, Group: 2, Class: 3}),
		"start": mustEncode(AppendStartRecord(nil, StartRecord{Instance: 300, Alg: "A_f+2", Group: 2})),
		"hello": mustEncode(AppendHelloRecord(nil, HelloRecord{Cluster: "indulgence", Sender: 3})),
		"trace-header": mustEncode(AppendTraceHeaderRecord(nil, TraceHeaderRecord{
			Version: TraceFormatVersion, Deterministic: true, Seed: -42,
			N: 5, T: 2, Groups: 3, MaxBatch: 8, MaxInflight: 300,
			LingerNanos: 1e6, TimeoutNanos: 1e7,
			Algorithm: "atplus2", Placement: "key-affinity",
			Classes: 3, Spec: `{"seed":42}`,
		})),
		"trace-event": AppendTraceEventRecord(nil, TraceEventRecord{
			Seq: 300, AtNanos: 1234567, Cohort: 1, Client: 3, Class: 2,
			Key: 1 << 40, Value: -77, Payload: 512,
		}),
		"trace-outcome": AppendTraceOutcomeRecord(nil, TraceOutcomeRecord{
			Seq: 300, Status: TraceDecided, Instance: 17, Value: -77,
			Round: 4, Batch: 6, Group: 2, Class: 2, LatencyNanos: 2500,
		}),
		"decision-trace": mustEncode(AppendDecisionTraceRecord(nil, DecisionTraceRecord{
			Instance: 300, Group: 3, Level: 2, Chosen: "A_t+2",
			NotTaken: []string{"A_f+2", "A_<>S"}, Suspicions: 42,
			QueueLen: 17, QueueCap: 64, BatchFill: 87, BatchLimit: 32,
			LingerNanos: 2_500_000, EWMANanos: 1_300_000, ShedMask: 0b101,
		})),
		"message": groupFrame(3, 300, model.Message{From: 3, Round: 2,
			Payload: payload.AckEst{Est: 4, TS: 2, Ack: model.Some(-9)}}),
	}
}

// corpusInputs parses every committed fuzz corpus file under
// testdata/fuzz (the `go test fuzz v1` single-[]byte form).
func corpusInputs(t *testing.T) [][]byte {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("testdata", "fuzz", "*", "*"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(paths)
	var inputs [][]byte
	for _, path := range paths {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
		if len(lines) != 2 || lines[0] != "go test fuzz v1" ||
			!strings.HasPrefix(lines[1], "[]byte(") || !strings.HasSuffix(lines[1], ")") {
			t.Fatalf("%s: not a single-[]byte fuzz corpus file", path)
		}
		s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")"))
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		inputs = append(inputs, []byte(s))
	}
	return inputs
}

// fuzzInputs is the committed fuzz corpus followed by every fuzz seed:
// the inputs TestDecodeGolden feeds every decoder.
func fuzzInputs(t *testing.T) [][]byte {
	inputs := corpusInputs(t)
	for _, seeds := range [][][]byte{
		instanceMessageSeeds(), groupEnvelopeSeeds(), decisionRecordSeeds(), startRecordSeeds(),
		helloRecordSeeds(), traceRecordSeeds(), decisionTraceRecordSeeds(),
	} {
		inputs = append(inputs, seeds...)
	}
	return inputs
}

// TestSplitMessageMatchesDecodeMessage: SplitMessage then DecodePayload
// yields exactly what DecodeMessage does, errors included, on the bare
// message of every input the golden's message decoder sees.
func TestSplitMessageMatchesDecodeMessage(t *testing.T) {
	inputs := fuzzInputs(t)
	enc := goldenCanonical()["message"]
	for cut := 0; cut <= len(enc); cut++ {
		inputs = append(inputs, enc[:cut])
	}
	for _, in := range inputs {
		_, _, inner, err := StripGroup(in)
		if err != nil {
			inner = in
		}
		want, wantN, wantErr := DecodeMessage(inner)
		got, raw, err := SplitMessage(inner)
		gotN := 0
		if err == nil {
			var used int
			if got.Payload, used, err = DecodePayload(raw); err == nil {
				gotN = len(inner) - len(raw) + used
			} else {
				got = model.Message{}
			}
		}
		if fmt.Sprint(err) != fmt.Sprint(wantErr) || gotN != wantN || !reflect.DeepEqual(got, want) {
			t.Errorf("%x: split+payload = %v, %d, %v; DecodeMessage = %v, %d, %v",
				inner, got, gotN, err, want, wantN, wantErr)
		}
	}
}

// TestDecodeGolden pins the decoders' accept set across refactors:
// every committed fuzz corpus file and every fuzz seed through all
// eight decoders, and every prefix of one canonical encoding per record
// kind through its own, one line each — kind, input, then
// ok|truncated|unknown, bytes consumed and the decoded value. The
// golden was generated on the commit before the decode cursor existed;
// a decoder change that moves a line changed what the journal, the
// trace files or the handshake accept.
func TestDecodeGolden(t *testing.T) {
	var out bytes.Buffer
	seen := make(map[string]bool)
	emit := func(kind string, decode func([]byte) (any, int, error), in []byte) {
		key := fmt.Sprintf("%s %x", kind, in)
		if seen[key] {
			return
		}
		seen[key] = true
		v, n, err := decode(in)
		switch {
		case err == nil:
			fmt.Fprintf(&out, "%s → ok, %d, %+v\n", key, n, v)
		case errors.Is(err, ErrTruncated):
			fmt.Fprintf(&out, "%s → truncated\n", key)
		case errors.Is(err, ErrUnknownPayload):
			fmt.Fprintf(&out, "%s → unknown\n", key)
		default:
			t.Errorf("%s: error of neither class: %v", key, err)
		}
	}
	for _, in := range fuzzInputs(t) {
		for _, d := range goldenDecoders {
			emit(d.kind, d.decode, in)
		}
	}
	canonical := goldenCanonical()
	for _, d := range goldenDecoders {
		enc := canonical[d.kind]
		for cut := 0; cut <= len(enc); cut++ {
			emit(d.kind, d.decode, enc[:cut])
		}
	}

	golden := filepath.Join("testdata", "decode.golden")
	if *updateDecodeGolden {
		if err := os.WriteFile(golden, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(out.Bytes(), want) {
		return
	}
	got, exp := strings.Split(out.String(), "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(got) && i < len(exp); i++ {
		if got[i] != exp[i] {
			t.Fatalf("decode.golden line %d:\n got  %s\n want %s", i+1, got[i], exp[i])
		}
	}
	t.Fatalf("decode.golden: %d lines, want %d", len(got), len(exp))
}
