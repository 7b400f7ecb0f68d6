package workload

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"indulgence/internal/wire"
)

func sampleTrace(t testing.TB) *Trace {
	t.Helper()
	spec := GenSpec(5, 32)
	tr := &Trace{
		Header: wire.TraceHeaderRecord{
			Version: wire.TraceFormatVersion, Deterministic: true,
			Seed: spec.Seed, N: 3, T: 1, Groups: 2, MaxBatch: 8,
			MaxInflight: 4, LingerNanos: 1e6, TimeoutNanos: 1e7,
			Algorithm: "atplus2", Placement: "hash",
			Classes: spec.Classes(), Spec: spec.JSON(),
		},
	}
	for _, e := range spec.Events() {
		tr.Events = append(tr.Events, e.Record())
		tr.Outcomes = append(tr.Outcomes, wire.TraceOutcomeRecord{
			Seq: uint64(e.Seq), Status: wire.TraceDecided,
			Instance: uint64(e.Seq/4 + 1), Value: e.Value, Round: 2,
			Batch: 4, Group: uint64(e.Seq % 2), Class: e.Class,
			LatencyNanos: int64(1000 * (e.Seq + 1)),
		})
	}
	return tr
}

// TestTraceRoundTrip pins the canonical encoding: encode→decode→encode
// must be the identity on bytes, and the decoded trace must carry every
// record.
func TestTraceRoundTrip(t *testing.T) {
	tr := sampleTrace(t)
	buf, err := tr.Encode()
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeTrace(buf)
	if err != nil {
		t.Fatal(err)
	}
	if dec.TornBytes != 0 {
		t.Fatalf("clean trace decoded with %d torn bytes", dec.TornBytes)
	}
	if dec.Header != tr.Header {
		t.Fatalf("header changed: %+v vs %+v", dec.Header, tr.Header)
	}
	if len(dec.Events) != len(tr.Events) || len(dec.Outcomes) != len(tr.Outcomes) {
		t.Fatalf("decoded %d events / %d outcomes, want %d / %d",
			len(dec.Events), len(dec.Outcomes), len(tr.Events), len(tr.Outcomes))
	}
	buf2, err := dec.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, buf2) {
		t.Fatal("re-encoding is not byte-identical")
	}
	// The embedded spec must regenerate the recorded arrivals.
	spec, err := ParseSpec([]byte(dec.Header.Spec))
	if err != nil {
		t.Fatal(err)
	}
	regen := spec.Events()
	if len(regen) != len(dec.Events) {
		t.Fatalf("embedded spec regenerates %d events, recorded %d", len(regen), len(dec.Events))
	}
	for i, e := range regen {
		if e.Record() != dec.Events[i] {
			t.Fatalf("event %d: regenerated %+v, recorded %+v", i, e.Record(), dec.Events[i])
		}
	}
}

// TestTraceTornTail pins crash tolerance: truncating anywhere inside
// the final frame decodes to the longest intact prefix with the tail
// reported, never an error.
func TestTraceTornTail(t *testing.T) {
	tr := sampleTrace(t)
	buf, err := tr.Encode()
	if err != nil {
		t.Fatal(err)
	}
	whole, err := DecodeTrace(buf)
	if err != nil {
		t.Fatal(err)
	}
	total := len(whole.Events) + len(whole.Outcomes)
	for cut := len(buf) - 1; cut > len(buf)-12 && cut > 0; cut-- {
		dec, err := DecodeTrace(buf[:cut])
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		if dec.TornBytes == 0 {
			t.Fatalf("cut at %d: no torn tail reported", cut)
		}
		if got := len(dec.Events) + len(dec.Outcomes); got != total-1 {
			t.Fatalf("cut at %d: kept %d records, want %d", cut, got, total-1)
		}
	}
}

// TestTraceCorruptMiddle pins that corruption anywhere before the tail
// is an error, not a silent truncation.
func TestTraceCorruptMiddle(t *testing.T) {
	tr := sampleTrace(t)
	buf, err := tr.Encode()
	if err != nil {
		t.Fatal(err)
	}
	corrupt := append([]byte(nil), buf...)
	corrupt[len(buf)/2] ^= 0xFF
	if _, err := DecodeTrace(corrupt); err == nil {
		t.Fatal("mid-file corruption decoded without error")
	}
}

// TestTraceHeaderRequired pins that a trace must open with its header.
func TestTraceHeaderRequired(t *testing.T) {
	if _, err := DecodeTrace(nil); err == nil {
		t.Fatal("empty trace decoded without error")
	}
	ev, err := appendEvent(nil, wire.TraceEventRecord{Seq: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeTrace(ev); err == nil {
		t.Fatal("headerless trace decoded without error")
	}
}

// TestTraceWriter pins the streaming recorder: records appended out of
// canonical order land on disk intact and re-canonicalize through
// Encode to the same bytes the in-memory trace produces.
func TestTraceWriter(t *testing.T) {
	tr := sampleTrace(t)
	path := filepath.Join(t.TempDir(), "t.trace")
	w, err := NewWriter(path, tr.Header)
	if err != nil {
		t.Fatal(err)
	}
	// Interleave and reverse: the writer must not care about order.
	for i := len(tr.Events) - 1; i >= 0; i-- {
		if err := w.Event(tr.Events[i]); err != nil {
			t.Fatal(err)
		}
		if err := w.Outcome(tr.Outcomes[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	dec, err := ReadTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := tr.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := dec.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("streamed trace does not re-canonicalize to the in-memory trace")
	}
	// A torn streamed file (crash mid-append) still reads.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	torn, err := ReadTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	if torn.TornBytes == 0 {
		t.Fatal("torn streamed trace reported no torn tail")
	}
}

// FuzzDecodeTrace covers the trace file reader, whose input is a file
// from outside the program: arbitrary bytes must never panic it, the
// torn tail it reports must lie inside the input, and whatever it
// accepts must re-encode to canonical bytes that decode tear-free and
// re-encode to themselves (decode∘encode is a fixed point).
func FuzzDecodeTrace(f *testing.F) {
	whole, err := sampleTrace(f).Encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(whole)
	f.Add(whole[:len(whole)-3]) // torn tail
	f.Add(whole[:40])           // torn inside the header frame
	corrupt := append([]byte(nil), whole...)
	corrupt[len(corrupt)/2] ^= 0xFF
	f.Add(corrupt)
	headerless, err := appendEvent(nil, wire.TraceEventRecord{Seq: 1})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(headerless)
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0})

	f.Fuzz(func(t *testing.T, b []byte) {
		tr, err := DecodeTrace(b)
		if err != nil {
			return
		}
		if tr.TornBytes < 0 || tr.TornBytes > len(b) {
			t.Fatalf("torn tail of %d bytes in a %d-byte input", tr.TornBytes, len(b))
		}
		enc, err := tr.Encode()
		if err != nil {
			t.Fatalf("re-encode of a decoded trace failed: %v", err)
		}
		again, err := DecodeTrace(enc)
		if err != nil {
			t.Fatalf("decode of re-encoding failed: %v", err)
		}
		if again.TornBytes != 0 {
			t.Fatalf("canonical re-encoding decoded with a %d-byte torn tail", again.TornBytes)
		}
		enc2, err := again.Encode()
		if err != nil || !bytes.Equal(enc2, enc) {
			t.Fatalf("decode∘encode is not a fixed point (err %v)", err)
		}
	})
}
