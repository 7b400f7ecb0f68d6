package journal

import (
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"indulgence/internal/model"
	"indulgence/internal/wire"
)

// rec builds a distinguishable record for instance i.
func rec(i uint64) wire.DecisionRecord {
	return wire.DecisionRecord{Instance: i, Value: model.Value(i) + 100, Round: 3, Batch: 2}
}

// scanSegment is appendSegment into a fresh slice: the form the fuzz
// targets drive.
func scanSegment(b []byte) ([]Entry, int, bool) { return appendSegment(nil, b) }

// replayAll collects every decision record of a journal directory.
func replayAll(t *testing.T, dir string) ([]wire.DecisionRecord, ReplayInfo) {
	t.Helper()
	var recs []wire.DecisionRecord
	info, err := Replay(dir, func(e Entry) error {
		if !e.Start {
			recs = append(recs, e.Decision)
		}
		return nil
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	return recs, info
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const count = 100
	for i := uint64(0); i < count; i++ {
		if err := j.Append(rec(i)); err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if got, ok := j.Get(42); !ok || got != rec(42) {
		t.Fatalf("Get(42) = %+v, %v", got, ok)
	}
	if j.Frontier() != count || j.Len() != count {
		t.Fatalf("frontier=%d len=%d", j.Frontier(), j.Len())
	}
	st := j.Snapshot()
	if st.Appends != count || st.Decisions != count || st.Batches == 0 || st.Syncs == 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.SyncLatency.Count != st.Syncs {
		t.Fatalf("sync latency samples %d != syncs %d", st.SyncLatency.Count, st.Syncs)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	recs, info := replayAll(t, dir)
	if len(recs) != count || info.Decisions != count || info.TornBytes != 0 {
		t.Fatalf("replay = %d records, info %+v", len(recs), info)
	}
	for i, r := range recs {
		if r != rec(uint64(i)) {
			t.Fatalf("record %d = %+v", i, r)
		}
	}
	if info.Frontier != count {
		t.Fatalf("replay frontier = %d", info.Frontier)
	}
}

func TestReopenResumesFrontier(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 10; i++ {
		if err := j.Append(rec(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = j2.Close() }()
	if j2.Frontier() != 10 || j2.Len() != 10 {
		t.Fatalf("recovered frontier=%d len=%d", j2.Frontier(), j2.Len())
	}
	if got, ok := j2.Get(7); !ok || got != rec(7) {
		t.Fatalf("recovered Get(7) = %+v, %v", got, ok)
	}
	// Appends resume past the recovered frontier and land in the same
	// log.
	if err := j2.Append(rec(10)); err != nil {
		t.Fatal(err)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	recs, _ := replayAll(t, dir)
	if len(recs) != 11 || recs[10] != rec(10) {
		t.Fatalf("replay after reopen: %d records", len(recs))
	}
}

func TestSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	const count = 50
	for i := uint64(0); i < count; i++ {
		if err := j.Append(rec(i)); err != nil {
			t.Fatal(err)
		}
	}
	st := j.Snapshot()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	idxs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(idxs) < 2 {
		t.Fatalf("no rotation: %d segments for %d records at 64-byte budget", len(idxs), count)
	}
	if st.Segments != len(idxs) {
		t.Fatalf("stats report %d segments, dir has %d", st.Segments, len(idxs))
	}
	recs, info := replayAll(t, dir)
	if len(recs) != count || info.Segments != len(idxs) {
		t.Fatalf("replay across segments: %d records, info %+v", len(recs), info)
	}
	for i, r := range recs {
		if r.Instance != uint64(i) {
			t.Fatalf("append order broken across rotation: record %d is instance %d", i, r.Instance)
		}
	}
}

// TestTornTailTruncatedOnOpen simulates the crash window: bytes of a
// half-written frame at the end of the final segment are dropped at Open,
// every intact record survives, and the journal accepts new appends on a
// clean boundary.
func TestTornTailTruncatedOnOpen(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 5; i++ {
		if err := j.Append(rec(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the tail: append half a frame.
	path := filepath.Join(dir, segmentName(0))
	whole := appendFrame(nil, Entry{Decision: rec(99)})
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(whole[:len(whole)-3]); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if j2.Len() != 5 || j2.Frontier() != 5 {
		t.Fatalf("recovered len=%d frontier=%d", j2.Len(), j2.Frontier())
	}
	if st := j2.Snapshot(); st.TornBytes != len(whole)-3 {
		t.Fatalf("torn bytes = %d, want %d", st.TornBytes, len(whole)-3)
	}
	if _, ok := j2.Get(99); ok {
		t.Fatal("torn record resurrected")
	}
	if err := j2.Append(rec(5)); err != nil {
		t.Fatal(err)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	recs, info := replayAll(t, dir)
	if len(recs) != 6 || info.TornBytes != 0 {
		t.Fatalf("post-recovery replay: %d records, info %+v", len(recs), info)
	}
}

// TestCorruptionVariants drives Open and Replay through each torn-write
// shape: short header, bogus length, short payload, flipped payload bit
// (CRC mismatch), flipped CRC byte, and trailing garbage.
func TestCorruptionVariants(t *testing.T) {
	base := func() []byte {
		var b []byte
		for i := uint64(0); i < 3; i++ {
			b = appendFrame(b, Entry{Decision: rec(i)})
		}
		return b
	}
	whole := appendFrame(nil, Entry{Decision: rec(3)})
	cases := []struct {
		name string
		tail []byte
	}{
		{"short header", whole[:4]},
		{"short payload", whole[:wire.CRCFrameHeader+2]},
		{"bogus length", []byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0}},
		{"zero length", make([]byte, wire.CRCFrameHeader)},
		{"payload bit flip", flipByte(whole, len(whole)-1)},
		{"crc byte flip", flipByte(whole, 5)},
		{"garbage", []byte{0x42, 0x42, 0x42}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			intact := base()
			if err := os.WriteFile(filepath.Join(dir, segmentName(0)),
				append(append([]byte(nil), intact...), c.tail...), 0o644); err != nil {
				t.Fatal(err)
			}
			recs, info := replayAll(t, dir)
			if len(recs) != 3 {
				t.Fatalf("kept %d of 3 intact records", len(recs))
			}
			if info.TornBytes != len(c.tail) {
				t.Fatalf("torn bytes = %d, want %d", info.TornBytes, len(c.tail))
			}
			j, err := Open(dir, Options{})
			if err != nil {
				t.Fatalf("open over torn tail: %v", err)
			}
			if j.Len() != 3 {
				t.Fatalf("open kept %d of 3 records", j.Len())
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestMidJournalCorruptionFails pins the other half of the contract: a
// torn tail is only legal on the final segment, so damage to an earlier
// segment — which no crash can produce — must fail loudly, not be
// silently dropped.
func TestMidJournalCorruptionFails(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 20; i++ {
		if err := j.Append(rec(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	idxs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(idxs) < 2 {
		t.Fatalf("need rotation for this test, got %d segments", len(idxs))
	}
	first := filepath.Join(dir, segmentName(idxs[0]))
	b, err := os.ReadFile(first)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(first, b[:len(b)-1], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Replay(dir, nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("replay over mid-journal damage: %v", err)
	}
	// The torn segment is parsed whole before fn sees any entry of it,
	// so even its intact prefix is never delivered.
	torn, _, _ := scanSegment(b[:len(b)-1])
	if len(torn) == 0 {
		t.Fatal("the torn segment keeps no intact entry to check against")
	}
	seen := map[uint64]bool{}
	if _, err := Replay(dir, func(e Entry) error {
		seen[e.Instance()] = true
		return nil
	}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("replay with fn over mid-journal damage: %v", err)
	}
	for _, e := range torn {
		if seen[e.Instance()] {
			t.Fatalf("fn saw instance %d of the torn segment", e.Instance())
		}
	}
	if _, err := Open(dir, Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("open over mid-journal damage: %v", err)
	}
}

// TestConcurrentAppendsGroupCommit checks the group-commit fan-in:
// concurrent appenders all become durable, the index is complete, and
// fsyncs number below appends (some fsync carried more than one).
func TestConcurrentAppendsGroupCommit(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	const (
		workers = 16
		each    = 32
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if err := j.Append(rec(uint64(w*each + i))); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	st := j.Snapshot()
	if st.Appends != workers*each || j.Len() != workers*each {
		t.Fatalf("stats = %+v, len = %d", st, j.Len())
	}
	if st.Syncs != st.Batches || st.Syncs >= st.Appends {
		t.Fatalf("%d syncs / %d batches / %d appends: group commit broken",
			st.Syncs, st.Batches, st.Appends)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	recs, _ := replayAll(t, dir)
	if len(recs) != workers*each {
		t.Fatalf("replayed %d of %d", len(recs), workers*each)
	}
}

// TestGroupCommitDrainsIntake pins the timerless group commit: the
// appends that queue while the writer is busy are written and fsynced
// together, exactly once, and a lone append on an idle journal costs
// exactly one fsync — it waits for no company. The queued decisions
// carry three group tags (group g owns instances g, g+3, …), as in the
// one journal of an earlier build's three-group runtime: one fsync
// carries all three.
func TestGroupCommitDrainsIntake(t *testing.T) {
	const k, groups = 16, 3
	held, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	j, err := Open(t.TempDir(), Options{OnAppend: func(Entry) {
		once.Do(func() { close(held); <-release })
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = j.Close() }()
	first := make(chan error, 1)
	go func() { first <- j.Append(rec(0)) }()
	<-held // append #1 is durable; the writer is parked in its hook
	before := j.Snapshot()
	if before.Syncs != 1 || before.Batches != 1 || before.Appends != 1 {
		t.Fatalf("after the first append: %+v", before)
	}
	errs := make(chan error, k)
	for i := uint64(1); i <= k; i++ {
		r := rec(i)
		r.Group = i % groups
		go func() { errs <- j.Append(r) }()
	}
	for len(j.intake) < k {
		time.Sleep(50 * time.Microsecond)
	}
	close(release)
	if err := <-first; err != nil {
		t.Fatal(err)
	}
	for range k {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	group := j.Snapshot()
	if group.Syncs-before.Syncs != 1 || group.Batches-before.Batches != 1 || group.Appends != k+1 {
		t.Fatalf("%d queued appends took %d fsyncs in %d batches, want 1 and 1 (stats %+v)",
			k, group.Syncs-before.Syncs, group.Batches-before.Batches, group)
	}
	for i := uint64(1); i <= k; i++ {
		if r, ok := j.Get(i); !ok || r.Group != i%groups {
			t.Fatalf("instance %d not durable under group %d: %+v (present %v)", i, i%groups, r, ok)
		}
	}
	if err := j.Append(rec(k + 1)); err != nil {
		t.Fatal(err)
	}
	lone := j.Snapshot()
	if lone.Syncs-group.Syncs != 1 || lone.Batches-group.Batches != 1 {
		t.Fatalf("a lone append took %d fsyncs in %d batches, want 1 and 1",
			lone.Syncs-group.Syncs, lone.Batches-group.Batches)
	}
	if j.Len() != k+2 {
		t.Fatalf("len = %d, want %d", j.Len(), k+2)
	}
}

// TestIndexMatchesMapOracle drives the decision index through Append
// in the orders it must absorb — permutations within a 32-wide window
// (live decisions finish out of order by up to the inflight bound),
// duplicate instances (the last record wins) and one instance far
// below the tail — and through the IDs and fields at its edges: IDs on
// both sides of page boundaries, 0, 1<<63 and math.MaxUint64-1, and
// groups up to 1<<40 with every class. It checks Get, Len and Frontier
// against a map live, after reopening, and after records appended to
// the reopened journal replace recovered ones.
func TestIndexMatchesMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	const blocks, width = 8, 32
	// Instances are 6, 9, 12, ...: every record has a miss on each side.
	var order []wire.DecisionRecord
	for b := range blocks {
		for _, p := range rng.Perm(width) {
			order = append(order, rec(uint64(6+3*(b*width+p))))
		}
	}
	for i := range 20 {
		dup := order[rng.Intn(len(order))]
		dup.Value += model.Value(1000 + i)
		order = append(order, dup)
	}
	order = append(order, rec(10))
	var dense uint64
	for _, r := range order {
		dense = max(dense, r.Instance)
	}

	// edge gives instance i a record with its fields spread over their
	// ranges: the group up to 1<<40, every class, extreme values.
	edge := func(i uint64, k int) wire.DecisionRecord {
		r := rec(i)
		r.Group = []uint64{0, 1, 1 << 40}[k%3]
		r.Class = k % (wire.MaxClassValue + 1)
		r.Value = []model.Value{math.MinInt64, -1, math.MaxInt64}[k%3]
		r.Round = model.Round(1) << (k % 41)
		r.Batch = []int{0, 1, wire.MaxFrameSize}[k%3]
		return r
	}
	edges := []uint64{0, pageSlots - 1, pageSlots, 7*pageSlots - 1, 7 * pageSlots,
		1<<63 - 1, 1 << 63, math.MaxUint64 - 1}
	for k, i := range edges {
		order = append(order, edge(i, k))
	}
	order = append(order, edge(pageSlots, 7)) // class 7 replaces a recorded edge

	// Every ID up to the dense range's end plus 8, and each edge's
	// neighbors: a hit, a miss on each side.
	probes := map[uint64]bool{}
	for i := uint64(0); i <= dense+8; i++ {
		probes[i] = true
	}
	for _, i := range edges {
		probes[i-1], probes[i], probes[i+1] = true, true, true
	}

	dir := t.TempDir()
	j, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	oracle := map[uint64]wire.DecisionRecord{}
	var top uint64
	add := func(j *Journal, r wire.DecisionRecord) {
		t.Helper()
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
		oracle[r.Instance] = r
		top = max(top, r.Instance)
	}
	for _, r := range order {
		add(j, r)
	}
	check := func(j *Journal, when string) {
		t.Helper()
		for i := range probes {
			got, ok := j.Get(i)
			want, wantOK := oracle[i]
			if ok != wantOK || got != want {
				t.Fatalf("%s: Get(%d) = %+v, %v; want %+v, %v", when, i, got, ok, want, wantOK)
			}
		}
		if j.Len() != len(oracle) || j.Snapshot().Decisions != len(oracle) {
			t.Fatalf("%s: len %d, decisions %d, want %d", when, j.Len(), j.Snapshot().Decisions, len(oracle))
		}
		if j.Frontier() != top+1 {
			t.Fatalf("%s: frontier %d, want %d", when, j.Frontier(), top+1)
		}
	}
	check(j, "live")
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	check(j2, "reopened")
	// The last record wins across lifetimes: records appended after a
	// reopen replace recovered ones, live and at the next reopen.
	for k, i := range []uint64{9, pageSlots, 1 << 63} {
		r := edge(i, k+1)
		r.Value = model.Value(k) + 7
		add(j2, r)
	}
	check(j2, "replaced")
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	j3, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = j3.Close() }()
	check(j3, "replaced and reopened")
}

func TestAppendAfterClose(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if err := j.Append(rec(0)); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close: %v", err)
	}
}

func TestOnAppendHook(t *testing.T) {
	dir := t.TempDir()
	var seen []uint64
	j, err := Open(dir, Options{OnAppend: func(e Entry) {
		seen = append(seen, e.Instance())
	}})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 4; i++ {
		if err := j.Append(rec(i)); err != nil {
			t.Fatal(err)
		}
		// Append returning happens-after the hook, so reading seen
		// here is race-free.
		if len(seen) != int(i)+1 || seen[i] != i {
			t.Fatalf("hook saw %v after append %d", seen, i)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestReplayEmptyAndMissingDir(t *testing.T) {
	dir := t.TempDir()
	if info, err := Replay(dir, nil); err != nil || info.Decisions != 0 || info.Frontier != 0 {
		t.Fatalf("empty dir: %+v, %v", info, err)
	}
	if _, err := Replay(filepath.Join(dir, "nope"), nil); err == nil {
		t.Fatal("missing dir replayed")
	}
	if _, err := Replay(dir, nil); err != nil {
		t.Fatal(err)
	}
	// A stray file that looks almost like a segment is an error, not
	// silently skipped data.
	if err := os.WriteFile(filepath.Join(dir, "seg-x.wal"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Replay(dir, nil); err == nil {
		t.Fatal("stray segment name accepted")
	}
}

// flipByte returns a copy of b with one byte inverted.
func flipByte(b []byte, i int) []byte {
	out := append([]byte(nil), b...)
	out[i] ^= 0xFF
	return out
}

// TestStartRecordsRaiseFrontier pins the collision guard: a started but
// undecided instance (the crash-undecided case) still pushes the
// recovered frontier past its ID, while the decision index ignores it.
func TestStartRecordsRaiseFrontier(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.AppendStart(4, "A_t+2"); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(rec(2)); err != nil {
		t.Fatal(err)
	}
	if err := j.AppendStart(9, ""); err != nil {
		t.Fatal(err)
	}
	if j.Frontier() != 10 || j.Len() != 1 {
		t.Fatalf("frontier=%d len=%d, want 10 and 1", j.Frontier(), j.Len())
	}
	if _, ok := j.Get(9); ok {
		t.Fatal("start record served as a decision")
	}
	st := j.Snapshot()
	if st.Starts != 2 || st.Decisions != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = j2.Close() }()
	if j2.Frontier() != 10 || j2.Len() != 1 {
		t.Fatalf("recovered frontier=%d len=%d", j2.Frontier(), j2.Len())
	}
	if st := j2.Snapshot(); st.Starts != 2 || st.Decisions != 1 {
		t.Fatalf("recovered stats = %+v", st)
	}
	var kinds []bool
	var algs []string
	if _, err := Replay(dir, func(e Entry) error {
		kinds = append(kinds, e.Start)
		if e.Start {
			algs = append(algs, e.Alg)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(kinds) != 3 || !kinds[0] || kinds[1] || !kinds[2] {
		t.Fatalf("replayed kinds = %v", kinds)
	}
	// The algorithm tag survives the disk round trip, tagged and
	// untagged claims alike.
	if len(algs) != 2 || algs[0] != "A_t+2" || algs[1] != "" {
		t.Fatalf("replayed algorithm tags = %v", algs)
	}
}

// TestOpenLocked pins the single-writer guarantee: a journal directory
// with a live owner refuses a second Open (no interleaved writers), and
// the lock dies with the owner (Close releases it; so would a crash).
func TestOpenLocked(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); !errors.Is(err, ErrLocked) {
		t.Fatalf("second open of a live journal: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("open after close: %v", err)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestWriteErrorLatchesFatal pins the failed-write contract: after a
// write error (which may have torn the segment mid-frame), the journal
// must never acknowledge another append — an fsynced record past a torn
// frame would be acknowledged yet dropped by recovery.
func TestWriteErrorLatchesFatal(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(rec(0)); err != nil {
		t.Fatal(err)
	}
	// Sabotage the active segment out from under the writer: every
	// further write fails like a disk error would.
	if err := j.seg.Close(); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(rec(1)); err == nil {
		t.Fatal("append over a dead segment succeeded")
	}
	if err := j.AppendStart(9, ""); err == nil {
		t.Fatal("start append after a write error succeeded")
	}
	if err := j.Append(rec(2)); err == nil {
		t.Fatal("journal kept acknowledging after a write error")
	}
	_ = j.Close()

	// Recovery sees exactly the records acknowledged before the error.
	recs, _ := replayAll(t, dir)
	if len(recs) != 1 || recs[0] != rec(0) {
		t.Fatalf("post-failure replay = %v", recs)
	}
}

// TestClassRoundTrip pins the SLO-class tag through the journal: a
// classed decision record survives Append → Get and Append → Replay
// byte-exactly, and classless records keep reading back as class 0
// (the trailing-field wire compatibility the replay audit depends on).
func TestClassRoundTrip(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	classed := wire.DecisionRecord{Instance: 0, Value: 7, Round: 3, Batch: 4, Group: 2, Class: 5}
	classless := wire.DecisionRecord{Instance: 1, Value: 8, Round: 3, Batch: 1}
	topClass := wire.DecisionRecord{Instance: 2, Value: 9, Round: 4, Batch: 2, Class: wire.MaxClassValue}
	for _, r := range []wire.DecisionRecord{classed, classless, topClass} {
		if err := j.Append(r); err != nil {
			t.Fatalf("append %+v: %v", r, err)
		}
	}
	if got, ok := j.Get(0); !ok || got != classed {
		t.Fatalf("Get(0) = %+v, %v", got, ok)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	recs, _ := replayAll(t, dir)
	want := []wire.DecisionRecord{classed, classless, topClass}
	if len(recs) != len(want) {
		t.Fatalf("replayed %d records", len(recs))
	}
	for i, r := range recs {
		if r != want[i] {
			t.Fatalf("record %d = %+v, want %+v", i, r, want[i])
		}
	}
}

// TestDecodeEntryDispatch pins recovery's per-record cost and accept
// set: the marker byte selects the one decoder that runs, so a decision
// payload — 200k of them in a large recovery — decodes without building
// another kind's decode error (0 allocations), and a well-formed record
// of a kind the journal does not hold is not an entry.
func TestDecodeEntryDispatch(t *testing.T) {
	payload := wire.AppendDecisionRecord(nil, rec(7))
	if allocs := testing.AllocsPerRun(100, func() {
		if e, ok := decodeEntry(payload); !ok || e.Decision != rec(7) {
			t.Fatalf("decision payload decoded as %+v, %v", e, ok)
		}
	}); allocs != 0 {
		t.Fatalf("decodeEntry allocates %.0f times per decision record, want 0", allocs)
	}
	hello, err := wire.AppendHelloRecord(nil, wire.HelloRecord{Cluster: "c", Sender: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range [][]byte{nil, hello, wire.AppendTraceEventRecord(nil, wire.TraceEventRecord{Seq: 1}),
		append(append([]byte(nil), payload...), 0x80)} {
		if e, ok := decodeEntry(b); ok {
			t.Fatalf("payload % x accepted as %+v", b, e)
		}
	}
}
