package wire

import (
	"bytes"
	"errors"
	"testing"
)

// TestRecordPrefixes is the cursor's contract over all seven record
// kinds, on the golden's canonical encodings: every proper prefix is
// ErrTruncated — except at the documented optional-field boundaries of
// decision and start records, where it is the valid shorter (pre-group,
// pre-class, pre-tag) record — the full encoding decodes consuming every
// byte, KindOf names the kind, and a wrong marker is ErrUnknownPayload.
func TestRecordPrefixes(t *testing.T) {
	// shorter maps a prefix length to the valid record it decodes as.
	shorter := map[string]map[int]any{
		"decision": {
			6: DecisionRecord{Instance: 300, Value: -5, Round: 4, Batch: 6},
			7: DecisionRecord{Instance: 300, Value: -5, Round: 4, Batch: 6, Group: 2},
		},
		"start": {
			3: StartRecord{Instance: 300}, // marker + two-byte instance: the pre-tag layout
			9: StartRecord{Instance: 300, Alg: "A_f+2"},
		},
	}
	canonical := goldenCanonical()
	for _, d := range goldenDecoders[:7] { // the record kinds; the last entry is the message path
		enc := canonical[d.kind]
		if k := KindOf(enc); k != Kind(enc[0]) || k.String() == "" {
			t.Errorf("%s: KindOf = %q (%#x)", d.kind, k, byte(k))
		}
		if _, n, err := d.decode(enc); err != nil || n != len(enc) {
			t.Errorf("%s: full encoding consumed %d of %d, %v", d.kind, n, len(enc), err)
		}
		for cut := 0; cut < len(enc); cut++ {
			got, n, err := d.decode(enc[:cut])
			if want, ok := shorter[d.kind][cut]; ok {
				if err != nil || n != cut || got != want {
					t.Errorf("%s[:%d]: optional-field boundary = %+v, %d, %v; want %+v", d.kind, cut, got, n, err, want)
				}
			} else if !errors.Is(err, ErrTruncated) {
				t.Errorf("%s[:%d]: %+v, %v; want ErrTruncated", d.kind, cut, got, err)
			}
		}
		wrong := append([]byte{enc[0] + 2}, enc[1:]...)
		if _, _, err := d.decode(wrong); !errors.Is(err, ErrUnknownPayload) {
			t.Errorf("%s under marker %#x: %v; want ErrUnknownPayload", d.kind, wrong[0], err)
		}
	}
	for _, b := range [][]byte{nil, {}, {instanceMarker, 0}, {groupMarker, 1, 0}, {0x02, 0x02, 0x00}, {0x13}} {
		if k := KindOf(b); k != KindNone {
			t.Errorf("KindOf(% x) = %s, want none", b, k)
		}
	}
}

// TestCRCFrame pins the one frame both the journal and the trace files
// use: AppendCRCFrame's in-place encode reads back through
// ReadCRCFrame, and each way a frame can be damaged gets its own error.
func TestCRCFrame(t *testing.T) {
	payload := AppendDecisionRecord(nil, DecisionRecord{Instance: 9, Value: 3, Round: 4, Batch: 2})
	encode := func(dst []byte) ([]byte, error) { return append(dst, payload...), nil }
	one, err := AppendCRCFrame([]byte("prefix"), encode)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(one, []byte("prefix")) || len(one) != len("prefix")+CRCFrameHeader+len(payload) {
		t.Fatalf("frame appended as % x", one)
	}
	frame := one[len("prefix"):]
	two, err := AppendCRCFrame(append([]byte(nil), frame...), encode)
	if err != nil {
		t.Fatal(err)
	}
	got, n, err := ReadCRCFrame(two)
	if err != nil || n != len(frame) || !bytes.Equal(got, payload) {
		t.Fatalf("ReadCRCFrame = % x, %d, %v", got, n, err)
	}
	if got, n, err = ReadCRCFrame(two[n:]); err != nil || n != len(frame) || !bytes.Equal(got, payload) {
		t.Fatalf("second frame = % x, %d, %v", got, n, err)
	}

	for cut := 0; cut < len(frame); cut++ {
		if _, _, err := ReadCRCFrame(frame[:cut]); !errors.Is(err, ErrShortFrame) {
			t.Fatalf("frame[:%d]: %v, want ErrShortFrame", cut, err)
		}
	}
	flipped := append([]byte(nil), two...)
	flipped[len(frame)-1] ^= 0x40
	if _, n, err := ReadCRCFrame(flipped); !errors.Is(err, ErrChecksum) || n != len(frame) {
		t.Fatalf("flipped payload: n=%d %v, want ErrChecksum over %d bytes", n, err, len(frame))
	}
	if _, _, err := ReadCRCFrame([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0}); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized length field: %v, want ErrFrameTooLarge", err)
	}
	failing := errors.New("encode failed")
	if _, err := AppendCRCFrame(nil, func([]byte) ([]byte, error) { return nil, failing }); !errors.Is(err, failing) {
		t.Fatalf("encode error not returned: %v", err)
	}
	if _, err := AppendCRCFrame(nil, func(dst []byte) ([]byte, error) {
		return append(dst, make([]byte, MaxFrameSize+1)...), nil
	}); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized payload: %v, want ErrFrameTooLarge", err)
	}
}
