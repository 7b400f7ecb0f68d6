package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
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

// referenceFrames parses a stream by the stream layout, all of it in
// hand: its frames, then io.EOF at a clean end, io.ErrUnexpectedEOF
// inside a header or a body, or ErrFrameTooLarge at an oversized
// length.
func referenceFrames(stream []byte) ([][]byte, error) {
	var frames [][]byte
	for {
		switch {
		case len(stream) == 0:
			return frames, io.EOF
		case len(stream) < frameHeader:
			return frames, io.ErrUnexpectedEOF
		}
		n := binary.BigEndian.Uint32(stream)
		switch {
		case n > MaxFrameSize:
			return frames, ErrFrameTooLarge
		case uint32(len(stream)-frameHeader) < n:
			return frames, io.ErrUnexpectedEOF
		}
		frames = append(frames, stream[frameHeader:frameHeader+n])
		stream = stream[frameHeader+n:]
	}
}

// FuzzFrameReader reads an arbitrary stream through reads whose sizes
// follow an arbitrary pattern: the frames FrameReader returns, checked
// only after the last read, and its final error must equal those of
// referenceFrames. The stream is a well-formed lead frame of any size
// up to two chunks, which moves what follows across chunk boundaries at
// any offset, then the input repeated, so small inputs (cheap to
// minimize) still run many frames past a chunk. The lead frame's bytes
// are distinct, so a reader that wrote into a chunk it handed frames
// out of shows.
func FuzzFrameReader(f *testing.F) {
	well := frameStream(f, mixedFrames(5))
	f.Add([]byte{}, []byte{}, uint16(0), uint8(0))
	f.Add(well, []byte{}, uint16(0), uint8(0))
	f.Add(well, []byte{0}, uint16(4000), uint8(3))
	f.Add(well, []byte{3, 200, 1, 0, 241}, uint16(1), uint8(9))
	f.Add(well[:len(well)-1], []byte{7}, uint16(4090), uint8(0))
	f.Add(frameStream(f, [][]byte{frameBody(0, 26)}), []byte{255, 0}, uint16(100), uint8(200))
	f.Add([]byte{0, 0, 0, 5, 1, 2}, []byte{0}, uint16(4091), uint8(0))
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF}, []byte{1}, uint16(0), uint8(0))
	f.Add(binary.BigEndian.AppendUint32([]byte{0, 0, 0, 0}, MaxFrameSize+1), []byte{}, uint16(5000), uint8(1))
	f.Fuzz(func(t *testing.T, input, pattern []byte, lead uint16, repeat uint8) {
		stream, err := AppendFrame(nil, frameBody(1, int(lead)%(2*frameChunk)))
		if err != nil {
			t.Fatal(err)
		}
		stream = append(stream, bytes.Repeat(input, 1+int(repeat))...)
		sizes := make([]int, len(pattern))
		for i, b := range pattern {
			sizes[i] = 1 + int(b)*17 // 1 byte up to past a chunk
		}
		want, wantErr := referenceFrames(stream)
		got, err := readAll(NewFrameReader(&patternReader{data: stream, sizes: sizes}))
		tooLarge := errors.Is(wantErr, ErrFrameTooLarge)
		if errors.Is(err, ErrFrameTooLarge) != tooLarge || !tooLarge && err != wantErr {
			t.Fatalf("final error %v, want %v", err, wantErr)
		}
		checkFrames(t, got, want)
	})
}
