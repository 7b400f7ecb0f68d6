package journal

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"indulgence/internal/check"
	"indulgence/internal/wire"
)

// TestReadHistoryMatchesReplay pins ReadHistory as a view of Replay: the
// same decisions, start claims (group tags kept) and decision traces, in
// append order, with Replay's segment count, torn tail and frontier.
func TestReadHistoryMatchesReplay(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{NoSync: true, SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 6; i++ {
		if err := j.AppendStartRecord(wire.StartRecord{Instance: i, Alg: "A_t+2", Group: i % 2}); err != nil {
			t.Fatal(err)
		}
		if err := j.AppendDecisionTrace(wire.DecisionTraceRecord{Instance: i, Chosen: "A_t+2"}); err != nil {
			t.Fatal(err)
		}
		if err := j.Append(rec(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	var want History
	info, err := Replay(dir, func(e Entry) error {
		switch {
		case e.Trace != nil:
			want.Traces = append(want.Traces, *e.Trace)
		case e.Start:
			want.Starts = append(want.Starts, wire.StartRecord{Instance: e.Instance(), Alg: e.Alg, Group: e.Decision.Group})
		default:
			want.Records = append(want.Records, e.Decision)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want.Segments, want.TornBytes, want.Frontier = info.Segments, info.TornBytes, info.Frontier
	got, err := ReadHistory(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) || len(got.Records) != 6 || len(got.Starts) != 6 || len(got.Traces) != 6 || got.Segments < 2 {
		t.Fatalf("ReadHistory = %+v\nReplay view = %+v", got, want)
	}
	if got.Starts[1].Group != 1 {
		t.Fatalf("start claim lost its group tag: %+v", got.Starts[1])
	}
}

// TestReadHistoryKeepsGroupTags plants what check.Replay's group audit
// exists to catch in journals written by several consensus groups: one
// instance ID decided under two group tags. ReadHistory must keep both
// tags, so the audit flags it.
func TestReadHistoryKeepsGroupTags(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []wire.DecisionRecord{
		{Instance: 5, Value: 7, Round: 3, Batch: 1, Group: 0},
		{Instance: 5, Value: 7, Round: 3, Batch: 1, Group: 1},
	} {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	h, err := ReadHistory(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Records) != 2 {
		t.Fatalf("read back %d records, want both conflicting ones", len(h.Records))
	}
	if rep := check.Replay(h.Records, h.Starts, nil); rep.Agreement {
		t.Fatalf("instance under two groups not flagged: %+v", rep)
	}
}

// TestGroupLayoutRefused pins the refusal of the retired per-group
// layout, a directory holding group-NNNN subdirectories: Open, Replay
// and ReadHistory all fail with ErrGroupLayout, and Open leaves no
// segment behind, while each subdirectory still reads on its own.
func TestGroupLayoutRefused(t *testing.T) {
	root := t.TempDir()
	sub := filepath.Join(root, "group-0001")
	j, err := Open(sub, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(rec(1)); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	if j, err := Open(root, Options{NoSync: true}); !errors.Is(err, ErrGroupLayout) {
		if j != nil {
			_ = j.Close()
		}
		t.Fatalf("Open of a per-group root: %v, want ErrGroupLayout", err)
	}
	if _, err := os.Stat(filepath.Join(root, segmentName(0))); !os.IsNotExist(err) {
		t.Fatalf("refused Open left a segment in the root: %v", err)
	}
	if _, err := Replay(root, nil); !errors.Is(err, ErrGroupLayout) {
		t.Fatalf("Replay of a per-group root: %v, want ErrGroupLayout", err)
	}
	if _, err := ReadHistory(root); !errors.Is(err, ErrGroupLayout) {
		t.Fatalf("ReadHistory of a per-group root: %v, want ErrGroupLayout", err)
	}
	h, err := ReadHistory(sub)
	if err != nil || len(h.Records) != 1 || h.Frontier != 2 {
		t.Fatalf("ReadHistory of one group subdirectory = %+v, %v; want one record, frontier 2", h, err)
	}
}
