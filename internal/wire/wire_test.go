package wire

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"indulgence/internal/model"
	"indulgence/internal/payload"
)

func roundTrip(t *testing.T, m model.Message) model.Message {
	t.Helper()
	enc, err := EncodeMessage(nil, m)
	if err != nil {
		t.Fatalf("encode %v: %v", m, err)
	}
	dec, n, err := DecodeMessage(enc)
	if err != nil {
		t.Fatalf("decode %v: %v", m, err)
	}
	if n != len(enc) {
		t.Fatalf("decode consumed %d of %d bytes", n, len(enc))
	}
	return dec
}

func TestRoundTripAllKinds(t *testing.T) {
	msgs := []model.Message{
		{From: 1, Round: 1, Payload: payload.NewValues([]model.Value{-3, 0, 9})},
		{From: 2, Round: 2, Payload: payload.EstHalt{Est: -7, Halt: model.NewPIDSet(1, 64)}},
		{From: 3, Round: 3, Payload: payload.NewEstimate{NE: model.Some(-1)}},
		{From: 4, Round: 4, Payload: payload.NewEstimate{NE: model.Bottom()}},
		{From: 5, Round: 5, Payload: payload.Decide{V: 123456789}},
		{From: 6, Round: 6, Payload: payload.Estimate{Est: 5, TS: 99}},
		{From: 7, Round: 7, Payload: payload.Propose{V: -5}},
		{From: 8, Round: 8, Payload: payload.Ack{Val: model.Some(0)}},
		{From: 9, Round: 9, Payload: payload.Ack{Val: model.Bottom()}},
		{From: 10, Round: 10, Payload: payload.AckEst{Est: 1, TS: 2, Ack: model.Some(3)}},
		{From: 11, Round: 11, Payload: payload.Adopt{Est: 42}},
		{From: 12, Round: 12, Payload: payload.Wrap{Inner: payload.Propose{V: 4}}},
		{From: 13, Round: 13, Payload: payload.Wrap{Inner: payload.Wrap{Inner: payload.Decide{V: 1}}}},
		{From: 14, Round: 14, Payload: payload.Wrap{}},
		{From: 15, Round: 15, Payload: nil},
	}
	for _, m := range msgs {
		got := roundTrip(t, m)
		if got.From != m.From || got.Round != m.Round {
			t.Fatalf("header mangled: %v -> %v", m, got)
		}
		if !reflect.DeepEqual(got.Payload, m.Payload) {
			t.Fatalf("payload mangled: %#v -> %#v", m.Payload, got.Payload)
		}
	}
}

// TestRoundTripQuick fuzzes EstHalt and Values payloads through the codec.
func TestRoundTripQuick(t *testing.T) {
	f := func(from uint8, round uint16, est int64, halt uint64, vals []int64) bool {
		m1 := model.Message{
			From:    model.ProcessID(int(from)%64 + 1),
			Round:   model.Round(round),
			Payload: payload.EstHalt{Est: model.Value(est), Halt: model.PIDSet(halt)},
		}
		vs := make([]model.Value, len(vals))
		for i, v := range vals {
			vs[i] = model.Value(v)
		}
		m2 := model.Message{
			From:    m1.From,
			Round:   m1.Round,
			Payload: payload.NewValues(vs),
		}
		for _, m := range []model.Message{m1, m2} {
			enc, err := EncodeMessage(nil, m)
			if err != nil {
				return false
			}
			dec, n, err := DecodeMessage(enc)
			if err != nil || n != len(enc) {
				return false
			}
			if !reflect.DeepEqual(dec, m) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(3))}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeTruncated(t *testing.T) {
	m := model.Message{From: 1, Round: 9, Payload: payload.AckEst{Est: 1, TS: 2, Ack: model.Some(3)}}
	enc, err := EncodeMessage(nil, m)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(enc); cut++ {
		if _, _, err := DecodeMessage(enc[:cut]); err == nil {
			t.Fatalf("decode of %d/%d bytes succeeded", cut, len(enc))
		}
	}
}

func TestDecodeUnknownTag(t *testing.T) {
	enc, err := EncodeMessage(nil, model.Message{From: 1, Round: 1, Payload: payload.Decide{V: 1}})
	if err != nil {
		t.Fatal(err)
	}
	enc[len(enc)-2] = 0xEE // clobber the payload tag region
	if _, _, err := DecodeMessage(enc); err == nil {
		t.Log("tag clobber happened to decode; adjusting offset")
	}
	bad := append(binaryHeader(), 0xEE)
	if _, _, err := DecodeMessage(bad); !errors.Is(err, ErrUnknownPayload) {
		t.Fatalf("err = %v, want ErrUnknownPayload", err)
	}
}

// binaryHeader encodes a minimal valid (from, round) prefix.
func binaryHeader() []byte {
	enc, _ := EncodeMessage(nil, model.Message{From: 1, Round: 1, Payload: nil})
	return enc[:len(enc)-1] // strip the nil payload tag
}

// TestLegacyFrameDecodesAsInstanceZero pins the backward-compatibility
// contract: every version-0 frame (bare message, no envelope) decodes
// through the instance-aware entry points as instance 0 with an identical
// message.
func TestLegacyFrameDecodesAsInstanceZero(t *testing.T) {
	msgs := []model.Message{
		{From: 1, Round: 1, Payload: nil},
		{From: 64, Round: 3, Payload: payload.Decide{V: -9}},
		{From: 2, Round: 200, Payload: payload.EstHalt{Est: 7, Halt: model.NewPIDSet(1, 2, 64)}},
		{From: 33, Round: 5, Payload: payload.NewValues([]model.Value{1, 2, 3})},
	}
	for _, m := range msgs {
		legacy, err := EncodeMessage(nil, m)
		if err != nil {
			t.Fatal(err)
		}
		if legacy[0] == instanceMarker {
			t.Fatalf("legacy frame for %v starts with the instance marker", m)
		}
		_, inst, dec, n, err := decodeFrame(legacy)
		if err != nil {
			t.Fatalf("decode legacy %v: %v", m, err)
		}
		if inst != 0 || n != len(legacy) || !reflect.DeepEqual(dec, m) {
			t.Fatalf("legacy decode: instance=%d n=%d/%d msg=%v, want instance 0, full frame, %v",
				inst, n, len(legacy), dec, m)
		}
		gotInst, inner, err := StripInstance(legacy)
		if err != nil || gotInst != 0 || !bytes.Equal(inner, legacy) {
			t.Fatalf("StripInstance(legacy) = %d, %q, %v", gotInst, inner, err)
		}
	}
}

// TestInstanceEnvelopeRoundTrip covers the version-1 path, including
// instance 0 (explicit envelope) and IDs beyond one varint byte.
func TestInstanceEnvelopeRoundTrip(t *testing.T) {
	m := model.Message{From: 5, Round: 9, Payload: payload.Estimate{Est: 4, TS: 2}}
	for _, instance := range []uint64{0, 1, 127, 128, 1 << 20, 1<<64 - 1} {
		enc, err := EncodeInstanceMessage(nil, instance, m)
		if err != nil {
			t.Fatal(err)
		}
		if enc[0] != instanceMarker {
			t.Fatalf("instance frame missing marker: % x", enc)
		}
		_, gotInst, dec, n, err := decodeFrame(enc)
		if err != nil {
			t.Fatalf("decode instance %d: %v", instance, err)
		}
		if gotInst != instance || n != len(enc) || !reflect.DeepEqual(dec, m) {
			t.Fatalf("round trip: instance=%d n=%d/%d msg=%v", gotInst, n, len(enc), dec)
		}
		// The envelope is exactly AppendInstanceHeader + version-0 bytes.
		legacy, _ := EncodeMessage(nil, m)
		if want := append(AppendInstanceHeader(nil, instance), legacy...); !bytes.Equal(enc, want) {
			t.Fatalf("envelope layout drifted: % x != % x", enc, want)
		}
	}
}

func TestStripInstanceTruncated(t *testing.T) {
	if _, _, err := StripInstance(nil); !errors.Is(err, ErrTruncated) {
		t.Fatalf("empty frame: %v", err)
	}
	if _, _, err := StripInstance([]byte{instanceMarker}); !errors.Is(err, ErrTruncated) {
		t.Fatalf("marker without id: %v", err)
	}
	if _, _, err := StripInstance([]byte{instanceMarker, 0x80}); !errors.Is(err, ErrTruncated) {
		t.Fatalf("unterminated id varint: %v", err)
	}
}

// TestDecisionRecordRoundTrip pins the record codec: every field survives
// encode/decode, including boundary instance IDs and negative values.
func TestDecisionRecordRoundTrip(t *testing.T) {
	cases := []DecisionRecord{
		{},
		{Instance: 1, Value: 7, Round: 4, Batch: 1},
		{Instance: 1<<64 - 1, Value: -1, Round: 1, Batch: 8},
		{Instance: 1 << 40, Value: 1<<62 - 1, Round: 256, Batch: MaxFrameSize},
	}
	for _, want := range cases {
		enc := AppendDecisionRecord(nil, want)
		got, n, err := DecodeDecisionRecord(enc)
		if err != nil {
			t.Fatalf("decode %+v: %v", want, err)
		}
		if n != len(enc) {
			t.Fatalf("decode %+v consumed %d of %d bytes", want, n, len(enc))
		}
		if got != want {
			t.Fatalf("round trip: %+v != %+v", got, want)
		}
	}
}

// TestDecisionRecordMarkerDisjoint checks the frame-kind invariant: a
// record can never be confused with either message frame version.
func TestDecisionRecordMarkerDisjoint(t *testing.T) {
	rec := AppendDecisionRecord(nil, DecisionRecord{Instance: 3, Value: 1, Round: 4, Batch: 2})
	if rec[0] == instanceMarker {
		t.Fatal("record marker collides with the instance marker")
	}
	for p := model.ProcessID(1); p <= model.MaxProcesses; p++ {
		frame, err := EncodeMessage(nil, model.Message{From: p, Round: 1})
		if err != nil {
			t.Fatal(err)
		}
		if frame[0] == rec[0] {
			t.Fatalf("sender %d opens with the record marker", p)
		}
	}
}

func TestDecisionRecordDecodeErrors(t *testing.T) {
	if _, _, err := DecodeDecisionRecord(nil); !errors.Is(err, ErrTruncated) {
		t.Fatalf("empty: %v", err)
	}
	if _, _, err := DecodeDecisionRecord([]byte{0x05}); !errors.Is(err, ErrUnknownPayload) {
		t.Fatalf("wrong marker: %v", err)
	}
	full := AppendDecisionRecord(nil, DecisionRecord{Instance: 1 << 40, Value: -9, Round: 300, Batch: 5})
	for i := 1; i < len(full); i++ {
		if _, _, err := DecodeDecisionRecord(full[:i]); !errors.Is(err, ErrTruncated) {
			t.Fatalf("prefix of %d bytes: %v", i, err)
		}
	}
	// An absurd batch count is rejected even when varint-complete.
	forged := append([]byte{recordMarker, 0x01, 0x02, 0x08}, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F)
	if _, _, err := DecodeDecisionRecord(forged); !errors.Is(err, ErrUnknownPayload) {
		t.Fatalf("oversized batch: %v", err)
	}
}

func TestStartRecordRoundTrip(t *testing.T) {
	cases := []StartRecord{
		{}, {Instance: 7}, {Instance: 1<<64 - 1},
		{Instance: 7, Alg: "A_f+2"},
		{Instance: 0, Alg: "A_t+2"},
	}
	for _, want := range cases {
		enc, err := AppendStartRecord(nil, want)
		if err != nil {
			t.Fatalf("encode %+v: %v", want, err)
		}
		got, n, err := DecodeStartRecord(enc)
		if err != nil || n != len(enc) || got != want {
			t.Fatalf("round trip %+v: got %+v n=%d err=%v", want, got, n, err)
		}
	}
	enc, err := AppendStartRecord(nil, StartRecord{Instance: 1})
	if err != nil {
		t.Fatal(err)
	}
	if enc[0] == recordMarker || enc[0] == instanceMarker {
		t.Fatal("start marker collides with another kind")
	}
	// A legacy record — marker + instance, no algorithm-tag length —
	// decodes with an empty Alg.
	legacy := []byte{startMarker, 0x07}
	got, n, err := DecodeStartRecord(legacy)
	if err != nil || n != len(legacy) || got.Instance != 7 || got.Alg != "" {
		t.Fatalf("legacy record: got %+v n=%d err=%v", got, n, err)
	}
	if _, _, err := DecodeStartRecord(nil); !errors.Is(err, ErrTruncated) {
		t.Fatalf("empty: %v", err)
	}
	if _, _, err := DecodeStartRecord([]byte{startMarker}); !errors.Is(err, ErrTruncated) {
		t.Fatalf("missing instance: %v", err)
	}
	if _, _, err := DecodeStartRecord([]byte{recordMarker, 1}); !errors.Is(err, ErrUnknownPayload) {
		t.Fatalf("wrong marker: %v", err)
	}
	// A tag longer than its payload is truncation; a tag over the cap is
	// rejected outright at both ends.
	if _, _, err := DecodeStartRecord([]byte{startMarker, 0x01, 0x05, 'a'}); !errors.Is(err, ErrTruncated) {
		t.Fatalf("short tag: %v", err)
	}
	if _, err := AppendStartRecord(nil, StartRecord{Alg: strings.Repeat("x", MaxAlgNameLen+1)}); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized tag encoded: %v", err)
	}
	if _, _, err := DecodeStartRecord(append([]byte{startMarker, 0x01, 0x7F}, make([]byte, 127)...)); !errors.Is(err, ErrUnknownPayload) {
		t.Fatalf("oversized tag decoded: %v", err)
	}
}

func TestHelloRecordRoundTrip(t *testing.T) {
	cases := []HelloRecord{
		{Cluster: "", Sender: 1},
		{Cluster: "indulgence", Sender: 3},
		{Cluster: "a/b c-d_e", Sender: model.MaxProcesses},
	}
	for _, want := range cases {
		enc, err := AppendHelloRecord(nil, want)
		if err != nil {
			t.Fatalf("encode %+v: %v", want, err)
		}
		got, n, err := DecodeHelloRecord(enc)
		if err != nil {
			t.Fatalf("decode %+v: %v", want, err)
		}
		if n != len(enc) {
			t.Fatalf("decode %+v consumed %d of %d bytes", want, n, len(enc))
		}
		if got != want {
			t.Fatalf("round trip: %+v != %+v", got, want)
		}
	}
}

// TestHelloRecordMarkerDisjoint checks the frame-kind invariant for the
// handshake: a hello can never be confused with any other frame kind.
func TestHelloRecordMarkerDisjoint(t *testing.T) {
	enc, err := AppendHelloRecord(nil, HelloRecord{Cluster: "c", Sender: 2})
	if err != nil {
		t.Fatal(err)
	}
	if enc[0] == instanceMarker || enc[0] == recordMarker || enc[0] == startMarker {
		t.Fatal("hello marker collides with another kind")
	}
	for p := model.ProcessID(1); p <= model.MaxProcesses; p++ {
		frame, err := EncodeMessage(nil, model.Message{From: p, Round: 1})
		if err != nil {
			t.Fatal(err)
		}
		if frame[0] == enc[0] {
			t.Fatalf("sender %d opens with the hello marker", p)
		}
	}
}

func TestHelloRecordDecodeErrors(t *testing.T) {
	if _, _, err := DecodeHelloRecord(nil); !errors.Is(err, ErrTruncated) {
		t.Fatalf("empty: %v", err)
	}
	if _, _, err := DecodeHelloRecord([]byte{recordMarker}); !errors.Is(err, ErrUnknownPayload) {
		t.Fatalf("wrong marker: %v", err)
	}
	full, err := AppendHelloRecord(nil, HelloRecord{Cluster: "cluster", Sender: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(full); i++ {
		if _, _, err := DecodeHelloRecord(full[:i]); !errors.Is(err, ErrTruncated) {
			t.Fatalf("prefix of %d bytes: %v", i, err)
		}
	}
	// Oversized cluster IDs are refused on both sides.
	if _, err := AppendHelloRecord(nil, HelloRecord{Cluster: strings.Repeat("x", MaxClusterIDLen+1), Sender: 1}); err == nil {
		t.Fatal("oversized cluster encoded")
	}
	forged := []byte{0x07, 0xFF, 0xFF, 0x7F}
	if _, _, err := DecodeHelloRecord(forged); !errors.Is(err, ErrUnknownPayload) {
		t.Fatalf("oversized cluster decoded: %v", err)
	}
	// A sender outside [1, MaxProcesses] is structurally invalid.
	bad, err := AppendHelloRecord(nil, HelloRecord{Cluster: "c", Sender: 0})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := DecodeHelloRecord(bad); !errors.Is(err, ErrUnknownPayload) {
		t.Fatalf("sender 0 decoded: %v", err)
	}
}
