package journal

import (
	"encoding/binary"
	"testing"

	"indulgence/internal/model"
	"indulgence/internal/wire"
)

// FuzzSegmentTornTail hammers the recovery scanner with arbitrary bytes:
// it must never panic, the kept records must be a stable property of the
// intact prefix (re-scanning it yields exactly them — recovery cannot
// invent decisions), and re-encoding them canonically must round-trip
// losslessly. Byte-identity with the input is NOT required: start
// records written before the algorithm tag existed re-encode one length
// byte longer (the committed corpus entry pins that legacy path), which
// is why the property is idempotence plus canonical round-trip rather
// than prefix equality.
func FuzzSegmentTornTail(f *testing.F) {
	var seed []byte
	for i := uint64(0); i < 3; i++ {
		seed = appendFrame(seed, Entry{Start: true, Alg: "A_f+2", Decision: wire.DecisionRecord{Instance: i}})
		seed = appendFrame(seed, Entry{Decision: wire.DecisionRecord{Instance: i, Value: model.Value(i), Round: 3, Batch: 1}})
	}
	f.Add(seed)
	f.Add(seed[:len(seed)-2])
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	// A legacy start frame — marker + instance, no tag length — as
	// journals written before the algorithm tag contain.
	legacy, err := wire.AppendCRCFrame(nil, func(dst []byte) ([]byte, error) { return append(dst, 0x05, 0x07), nil })
	if err != nil {
		f.Fatal(err)
	}
	f.Add(legacy)

	f.Fuzz(func(t *testing.T, b []byte) {
		recs, intact, torn := scanSegment(b)
		if intact > len(b) {
			t.Fatalf("intact offset %d beyond %d input bytes", intact, len(b))
		}
		if torn == (intact == len(b)) {
			t.Fatalf("torn=%v but intact=%d of %d", torn, intact, len(b))
		}
		// Idempotence: the intact prefix is a complete journal whose
		// scan reproduces exactly the kept records.
		again, intact2, torn2 := scanSegment(b[:intact])
		if torn2 || intact2 != intact || len(again) != len(recs) {
			t.Fatalf("re-scan of intact prefix: torn=%v intact=%d records=%d (was %d)",
				torn2, intact2, len(again), len(recs))
		}
		for i := range recs {
			if again[i] != recs[i] {
				t.Fatalf("record %d unstable under re-scan: %+v != %+v", i, again[i], recs[i])
			}
		}
		// Canonical round-trip: re-encoding the kept records and
		// scanning that must be lossless and tear-free.
		var reenc []byte
		for _, r := range recs {
			reenc = appendFrame(reenc, r)
		}
		canon, intact3, torn3 := scanSegment(reenc)
		if torn3 || intact3 != len(reenc) || len(canon) != len(recs) {
			t.Fatalf("canonical re-encoding does not round-trip: torn=%v intact=%d of %d",
				torn3, intact3, len(reenc))
		}
		for i := range recs {
			if canon[i] != recs[i] {
				t.Fatalf("record %d mutated by canonical round-trip: %+v != %+v", i, canon[i], recs[i])
			}
		}
	})
}

// FuzzReplayPrefix is the torn-write property test the recovery contract
// promises: take any journal built from fuzz-chosen records, cut it at
// any byte, and recovery must keep exactly the records whose frames lie
// entirely before the cut — every intact prefix record, only the torn
// tail dropped.
func FuzzReplayPrefix(f *testing.F) {
	f.Add(uint8(3), uint64(5), int64(-2), uint(17))
	f.Add(uint8(1), uint64(0), int64(0), uint(0))
	f.Add(uint8(8), uint64(1)<<40, int64(1)<<40, uint(1000))

	f.Fuzz(func(t *testing.T, count uint8, instSeed uint64, valSeed int64, cut uint) {
		var (
			whole  []byte
			bounds []int
			recs   []Entry
		)
		for i := 0; i < int(count%16); i++ {
			e := Entry{
				Start: i%3 == 2,
				Decision: wire.DecisionRecord{
					Instance: instSeed + uint64(i)*7,
					Value:    model.Value(valSeed) - model.Value(i),
					Round:    model.Round(i + 1),
					Batch:    i%8 + 1,
				},
			}
			if e.Start {
				e.Decision = wire.DecisionRecord{Instance: e.Decision.Instance}
			}
			recs = append(recs, e)
			whole = appendFrame(whole, e)
			bounds = append(bounds, len(whole))
		}
		cutAt := int(cut % uint(len(whole)+1))
		kept, intact, torn := scanSegment(whole[:cutAt])

		wantKept := 0
		for _, b := range bounds {
			if b <= cutAt {
				wantKept++
			}
		}
		if len(kept) != wantKept {
			t.Fatalf("cut at %d: kept %d records, want %d", cutAt, len(kept), wantKept)
		}
		for i, r := range kept {
			if r != recs[i] {
				t.Fatalf("record %d mutated by the cut: %+v != %+v", i, r, recs[i])
			}
		}
		if torn != (cutAt != intact) {
			t.Fatalf("cut at %d: torn=%v intact=%d", cutAt, torn, intact)
		}
		if wantKept > 0 && intact != bounds[wantKept-1] {
			t.Fatalf("cut at %d: intact=%d, want boundary %d", cutAt, intact, bounds[wantKept-1])
		}
	})
}

// FuzzFrameHeader checks that no 8-byte header over fuzz-chosen size and
// checksum fields can make the scanner read outside its input or accept
// a record that the CRC does not endorse.
func FuzzFrameHeader(f *testing.F) {
	valid := appendFrame(nil, Entry{Decision: wire.DecisionRecord{Instance: 1, Value: 2, Round: 3, Batch: 4}})
	f.Add(uint32(len(valid)-wire.CRCFrameHeader), binary.BigEndian.Uint32(valid[4:8]), valid[wire.CRCFrameHeader:])
	f.Add(uint32(0), uint32(0), []byte{})
	f.Add(^uint32(0), uint32(1), []byte{1, 2, 3})

	f.Fuzz(func(t *testing.T, size, sum uint32, payload []byte) {
		frame := make([]byte, wire.CRCFrameHeader, wire.CRCFrameHeader+len(payload))
		binary.BigEndian.PutUint32(frame[:4], size)
		binary.BigEndian.PutUint32(frame[4:], sum)
		frame = append(frame, payload...)
		recs, intact, _ := scanSegment(frame)
		if len(recs) > 1 {
			t.Fatalf("single frame yielded %d records", len(recs))
		}
		if len(recs) == 1 && intact != wire.CRCFrameHeader+int(size) {
			t.Fatalf("accepted frame of size %d but consumed %d", size, intact)
		}
	})
}
