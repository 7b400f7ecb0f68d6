package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"testing"

	"indulgence/internal/model"
	"indulgence/internal/payload"
)

// TestGroupEnvelopeRoundTrip covers the version-2 reader, including IDs
// beyond one varint byte in both dimensions.
func TestGroupEnvelopeRoundTrip(t *testing.T) {
	m := model.Message{From: 5, Round: 9, Payload: payload.Estimate{Est: 4, TS: 2}}
	for _, group := range []uint64{1, 2, 127, 128, 1 << 20, 1<<64 - 1} {
		for _, instance := range []uint64{0, 1, 127, 128, 1 << 40} {
			enc := groupFrame(group, instance, m)
			if enc[0] != groupMarker {
				t.Fatalf("group frame missing marker: % x", enc)
			}
			g, inst, dec, n, err := decodeFrame(enc)
			if err != nil {
				t.Fatalf("decode (%d, %d): %v", group, instance, err)
			}
			if g != group || inst != instance || n != len(enc) || !reflect.DeepEqual(dec, m) {
				t.Fatalf("round trip: group=%d instance=%d n=%d/%d msg=%v",
					g, inst, n, len(enc), dec)
			}
			// The envelope is the marker, the group and instance
			// uvarints, then the version-0 bytes.
			legacy, _ := EncodeMessage(nil, m)
			want := binary.AppendUvarint(binary.AppendUvarint([]byte{groupMarker}, group), instance)
			if want = append(want, legacy...); !bytes.Equal(enc, want) {
				t.Fatalf("envelope layout drifted: % x != % x", enc, want)
			}
		}
	}
}

// TestLegacyFramesDecodeAsGroupZero pins the compatibility contract from
// the decoding side: every frame a pre-group peer can emit — version-0
// bare messages and version-1 instance envelopes — routes to group 0.
func TestLegacyFramesDecodeAsGroupZero(t *testing.T) {
	m := model.Message{From: 2, Round: 4, Payload: payload.Decide{V: 11}}
	bare, err := EncodeMessage(nil, m)
	if err != nil {
		t.Fatal(err)
	}
	g, inst, inner, err := StripGroup(bare)
	if err != nil || g != 0 || inst != 0 || !bytes.Equal(inner, bare) {
		t.Fatalf("bare frame: group=%d instance=%d inner=% x err=%v", g, inst, inner, err)
	}
	v1, err := EncodeInstanceMessage(nil, 42, m)
	if err != nil {
		t.Fatal(err)
	}
	g, inst, inner, err = StripGroup(v1)
	if err != nil || g != 0 || inst != 42 || !bytes.Equal(inner, bare) {
		t.Fatalf("v1 frame: group=%d instance=%d err=%v", g, inst, err)
	}
}

// TestGroupMarkerDisjoint checks the frame-kind invariant: the group
// marker collides with no other kind and no version-0 first byte.
func TestGroupMarkerDisjoint(t *testing.T) {
	if groupMarker == instanceMarker || groupMarker == recordMarker ||
		groupMarker == startMarker || groupMarker == helloMarker {
		t.Fatal("group marker collides with another kind")
	}
	for p := model.ProcessID(1); p <= model.MaxProcesses; p++ {
		frame, err := EncodeMessage(nil, model.Message{From: p, Round: 1})
		if err != nil {
			t.Fatal(err)
		}
		if frame[0] == groupMarker {
			t.Fatalf("sender %d opens with the group marker", p)
		}
	}
}

func TestStripGroupTruncated(t *testing.T) {
	if _, _, _, err := StripGroup(nil); !errors.Is(err, ErrTruncated) {
		t.Fatalf("empty frame: %v", err)
	}
	if _, _, _, err := StripGroup([]byte{groupMarker}); !errors.Is(err, ErrTruncated) {
		t.Fatalf("marker without group: %v", err)
	}
	if _, _, _, err := StripGroup([]byte{groupMarker, 0x80}); !errors.Is(err, ErrTruncated) {
		t.Fatalf("unterminated group varint: %v", err)
	}
	if _, _, _, err := StripGroup([]byte{groupMarker, 0x03}); !errors.Is(err, ErrTruncated) {
		t.Fatalf("group without instance: %v", err)
	}
	if _, _, _, err := StripGroup([]byte{groupMarker, 0x03, 0x80}); !errors.Is(err, ErrTruncated) {
		t.Fatalf("unterminated instance varint: %v", err)
	}
}

// TestRecordGroupTags pins the trailing group field of both journal
// record kinds: group 0 stays byte-identical to the pre-group layout,
// group > 0 round-trips, and pre-group encodings decode as Group 0.
func TestRecordGroupTags(t *testing.T) {
	legacyDec := AppendDecisionRecord(nil, DecisionRecord{Instance: 9, Value: 3, Round: 4, Batch: 2})
	zeroDec := AppendDecisionRecord(nil, DecisionRecord{Instance: 9, Value: 3, Round: 4, Batch: 2, Group: 0})
	if !bytes.Equal(legacyDec, zeroDec) {
		t.Fatal("group-0 decision record is not byte-identical to the pre-group layout")
	}
	got, n, err := DecodeDecisionRecord(legacyDec)
	if err != nil || n != len(legacyDec) || got.Group != 0 {
		t.Fatalf("legacy decision decode: %+v n=%d err=%v", got, n, err)
	}
	for _, want := range []DecisionRecord{
		{Instance: 9, Value: 3, Round: 4, Batch: 2, Group: 1},
		{Instance: 1<<64 - 1, Value: -1, Round: 1, Batch: 1, Group: 1<<64 - 1},
	} {
		enc := AppendDecisionRecord(nil, want)
		got, n, err := DecodeDecisionRecord(enc)
		if err != nil || n != len(enc) || got != want {
			t.Fatalf("grouped decision round trip %+v: got %+v n=%d err=%v", want, got, n, err)
		}
	}
	// A record whose trailing group is an unterminated varint is truncation.
	if _, _, err := DecodeDecisionRecord(append(legacyDec, 0x80)); !errors.Is(err, ErrTruncated) {
		t.Fatalf("unterminated group varint: %v", err)
	}

	legacyStart, err := AppendStartRecord(nil, StartRecord{Instance: 5, Alg: "A_t+2"})
	if err != nil {
		t.Fatal(err)
	}
	zeroStart, err := AppendStartRecord(nil, StartRecord{Instance: 5, Alg: "A_t+2", Group: 0})
	if err != nil || !bytes.Equal(legacyStart, zeroStart) {
		t.Fatalf("group-0 start record is not byte-identical to the pre-group layout (err %v)", err)
	}
	for _, want := range []StartRecord{
		{Instance: 5, Alg: "A_t+2", Group: 3},
		{Instance: 0, Alg: "", Group: 1},
		{Instance: 1 << 40, Alg: "A_f+2", Group: 1<<64 - 1},
	} {
		enc, err := AppendStartRecord(nil, want)
		if err != nil {
			t.Fatal(err)
		}
		got, n, err := DecodeStartRecord(enc)
		if err != nil || n != len(enc) || got != want {
			t.Fatalf("grouped start round trip %+v: got %+v n=%d err=%v", want, got, n, err)
		}
	}
	// The pre-tag layout — marker + instance only — still decodes with
	// empty Alg and Group 0.
	got2, n2, err := DecodeStartRecord([]byte{startMarker, 0x07})
	if err != nil || n2 != 2 || got2.Instance != 7 || got2.Alg != "" || got2.Group != 0 {
		t.Fatalf("pre-tag start record: %+v n=%d err=%v", got2, n2, err)
	}
}

// FuzzDecodeGroupEnvelope hammers the group-envelope decode path with
// arbitrary bytes: it must never panic; every frame that does not open
// with the group marker must decode as group 0 (the pre-group
// compatibility contract — no cross-version ambiguity with the 0x01
// envelope or the 0x03/0x05/0x07 record markers); and StripGroup must
// invert appendGroupHeader (strip/wrap/strip fixed point). The
// committed corpus under testdata/fuzz seeds every legacy frame kind.
func FuzzDecodeGroupEnvelope(f *testing.F) {
	for _, seed := range groupEnvelopeSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, frame []byte) {
		group, instance, inner, err := StripGroup(frame)
		if err != nil {
			return
		}
		if len(frame) > 0 && frame[0] != groupMarker && group != 0 {
			t.Fatalf("non-group frame % x decoded as group %d", frame, group)
		}
		// Re-wrapping the stripped payload under the same address must
		// strip back to the same triple. The one exemption: a
		// non-canonical frame that explicitly envelopes (group 0,
		// instance 0) around empty or marker-leading bytes. The
		// canonical encoding of that address is bare, so the collapse is
		// lossy by design — real payloads are never empty and never
		// start with a marker (senders zigzag-encode to even or
		// continuation bytes).
		if group == 0 && instance == 0 &&
			(len(inner) == 0 || inner[0] == instanceMarker || inner[0] == groupMarker) {
			return
		}
		rewrapped := append(appendGroupHeader(nil, group, instance), inner...)
		g2, i2, inner2, err := StripGroup(rewrapped)
		if err != nil {
			t.Fatalf("strip of re-wrap failed: %v", err)
		}
		if g2 != group || i2 != instance || !bytes.Equal(inner2, inner) {
			t.Fatalf("strip/wrap not a fixed point: (%d, %d, % x) vs (%d, %d, % x)",
				group, instance, inner, g2, i2, inner2)
		}
	})
}
