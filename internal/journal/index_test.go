package journal

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"
	"unsafe"

	"indulgence/internal/model"
	"indulgence/internal/wire"
)

// heapCost returns the live heap that what build returns retains: the
// least of three builds, each measured between two collections, so a
// stray allocation elsewhere in the process during one of them does
// not count.
func heapCost(build func() *index) int64 {
	cost := int64(math.MaxInt64)
	for range 3 {
		var m runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m)
		before := m.HeapAlloc
		x := build()
		runtime.GC()
		runtime.ReadMemStats(&m)
		cost = min(cost, int64(m.HeapAlloc)-int64(before))
		runtime.KeepAlive(x)
	}
	return cost
}

// TestIndexMemory pins what the index retains. A slot is 28 bytes
// whatever the spacing of the decided IDs: 100k dense decisions cost at
// most 32 bytes each, and 100k of one residue class of G groups (g,
// g+G, …: the IDs one group of an earlier build's multi-group runtime
// decided while the others stalled) at most 36 for G up to 8 and 48 for G = 64 — the
// sorted slice the page table replaced cost 48 at any spacing. Above
// the 28, a trimmed column pays the allocator's size-class rounding
// (up to 1/8) and each page its fixed part (presence bitmap and column
// headers: 232 bytes per 1,024-ID range), shared by fewer decisions the
// sparser they are. An isolated instance ID costs at most 512 bytes:
// that part, an untrimmed 4-slot column set and its page-table entry.
func TestIndexMemory(t *testing.T) {
	if size := unsafe.Sizeof(page{}); pageSlots != 1024 || size != 232 {
		t.Fatalf("a page covers %d IDs in %d fixed bytes, want 1024 in 232", pageSlots, size)
	}

	const decisions = 100_000
	for _, c := range []struct {
		groups uint64
		bound  float64
	}{{1, 32}, {2, 36}, {3, 36}, {4, 36}, {7, 36}, {8, 36}, {64, 48}} {
		groups, bound := c.groups, c.bound
		per := float64(heapCost(func() *index {
			x := new(index)
			for i := uint64(0); i < decisions; i++ {
				x.put(rec(1 + i*groups))
			}
			return x
		})) / decisions
		t.Logf("one residue class of %d groups: %.2f B per decision", groups, per)
		if per > bound {
			t.Fatalf("%d decisions 1, 1+%d, … cost %.2f B each, want <= %.0f", decisions, groups, per, bound)
		}
	}

	// Isolated IDs, each in a page of its own below a top page, so no
	// put trims: what each adds is its page, its first columns and its
	// page-table entry.
	const isolated = 1000
	build := func() *index {
		y := new(index)
		y.put(rec(1 << 50))
		for k := uint64(1); k <= isolated; k++ {
			y.put(rec(k << 20))
		}
		return y
	}
	cost := heapCost(build) / isolated
	t.Logf("an isolated instance ID: %d B", cost)
	if cost > 512 {
		t.Fatalf("an isolated instance ID costs %d B, want <= 512", cost)
	}
	if y := build(); y.n != isolated+1 {
		t.Fatalf("%d isolated IDs indexed, want %d", y.n, isolated+1)
	} else if got, ok := y.get(7 << 20); !ok || got != rec(7<<20) {
		t.Fatalf("isolated ID reads back %+v, %v", got, ok)
	}
}

// TestIndexRegrowsTrimmedPages drives the index against a map through
// the order that undoes its trimming: every fourth ID over 8 pages, so
// the pages behind the newest two are trimmed to fit, then the IDs
// between them in random order (with repeats), each landing below a
// trimmed page's last slot.
func TestIndexRegrowsTrimmedPages(t *testing.T) {
	const ids = 8 * pageSlots
	x := new(index)
	oracle := map[uint64]wire.DecisionRecord{}
	put := func(r wire.DecisionRecord) {
		x.put(r)
		oracle[r.Instance] = r
	}
	for i := uint64(0); i < ids; i += 4 {
		put(rec(i))
	}
	for _, p := range x.pages {
		if !p.loose && (len(p.value) != cap(p.value) || len(p.meta) != cap(p.meta)) {
			t.Fatalf("a trimmed page holds %d slots in %d", len(p.meta), cap(p.meta))
		}
	}
	if len(x.loose) > 2 {
		t.Fatalf("%d pages left untrimmed, want the newest two at most", len(x.loose))
	}
	rng := rand.New(rand.NewSource(3))
	for range 2 * ids {
		r := rec(uint64(rng.Intn(ids)))
		r.Value += model.Value(rng.Intn(1000))
		put(r)
	}
	for i := uint64(0); i <= ids; i++ {
		got, ok := x.get(i)
		if want, wantOK := oracle[i]; ok != wantOK || got != want {
			t.Fatalf("get(%d) = %+v, %v; want %+v, %v", i, got, ok, want, wantOK)
		}
	}
	if x.n != len(oracle) {
		t.Fatalf("%d indexed, want %d", x.n, len(oracle))
	}
}

// writeHistory writes the history a long-running service leaves into
// dir's segment files directly, rotating at the default 1 MiB: the
// given number of decisions, with a start claim per 32-instance block
// ahead of each block. It returns the number of entries written.
func writeHistory(t testing.TB, dir string, decisions uint64) int {
	t.Helper()
	var seg []byte
	idx, entries := 0, 0
	flush := func() {
		if err := os.WriteFile(filepath.Join(dir, segmentName(idx)), seg, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	add := func(e Entry) {
		if len(seg) >= 1<<20 {
			flush()
			idx, seg = idx+1, seg[:0]
		}
		seg = appendFrame(seg, e)
		entries++
	}
	for i := uint64(0); i < decisions; i++ {
		if i%32 == 0 {
			add(Entry{Start: true, Alg: "A_t+2", Decision: wire.DecisionRecord{Instance: i + 31}})
		}
		add(Entry{Decision: wire.DecisionRecord{Instance: i, Value: model.Value(i + 1), Round: 3, Batch: 4}})
	}
	flush()
	return entries
}

// TestOpenAllocPerRecord pins recovery's allocation: opening 200k
// decisions and their 6,250 start claims reads every segment into one
// buffer and parses it into one entry slice, so what Open allocates
// per recovered entry is about the index's share — at most 200 bytes
// (the sorted-slice index with a buffer per segment took about 700).
func TestOpenAllocPerRecord(t *testing.T) {
	dir := t.TempDir()
	entries := writeHistory(t, dir, 200_000)
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	begin := time.Now()
	j, err := Open(dir, Options{NoSync: true})
	took := time.Since(begin)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = j.Close() }()
	if j.Len() != 200_000 || j.Frontier() != 200_000 {
		t.Fatalf("recovered len %d, frontier %d", j.Len(), j.Frontier())
	}
	alloc := after.TotalAlloc - before.TotalAlloc
	per := float64(alloc) / float64(entries)
	t.Logf("Open of %d entries: %.1f MB allocated (%.0f B per entry) in %v", entries, float64(alloc)/1e6, per, took)
	if per > 200 {
		t.Fatalf("Open allocates %.0f B per recovered entry, want <= 200", per)
	}
}

// TestReplayEntriesOutliveSegments pins that nothing Replay hands fn
// aliases the buffer it reuses for the next segment: the algorithm tags
// and decision-trace records of a journal spread over many segments,
// kept by fn, still read as appended after Replay returns.
func TestReplayEntriesOutliveSegments(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{SegmentBytes: 64, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	var want []Entry
	for i := uint64(0); i < 40; i++ {
		alg := fmt.Sprintf("alg-%d", i)
		trace := wire.DecisionTraceRecord{Instance: i, Level: 1, Chosen: "chosen-" + alg,
			NotTaken: []string{"a-" + alg, "b-" + alg}, QueueLen: i}
		if err := j.AppendStart(i, alg); err != nil {
			t.Fatal(err)
		}
		if err := j.AppendDecisionTrace(trace); err != nil {
			t.Fatal(err)
		}
		if err := j.Append(rec(i)); err != nil {
			t.Fatal(err)
		}
		want = append(want, Entry{Start: true, Alg: alg, Decision: wire.DecisionRecord{Instance: i}},
			Entry{Trace: &trace}, Entry{Decision: rec(i)})
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	var got []Entry
	info, err := Replay(dir, func(e Entry) error {
		got = append(got, e)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if info.Segments < 10 || len(got) != len(want) {
		t.Fatalf("replayed %d of %d entries over %d segments", len(got), len(want), info.Segments)
	}
	for i := range want {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("entry %d reads %+v after replay, appended as %+v", i, got[i], want[i])
		}
	}
}

// TestReservedInstance pins the frontier's top: instance ID
// math.MaxUint64 would put the frontier past it at 0, so every append
// refuses it, and a record of it already on disk saturates the
// frontier instead of wrapping it — live, in Replay and at Open.
func TestReservedInstance(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(rec(5)); err != nil {
		t.Fatal(err)
	}
	for name, err := range map[string]error{
		"Append":              j.Append(rec(math.MaxUint64)),
		"AppendStart":         j.AppendStart(math.MaxUint64, "A_t+2"),
		"AppendStartRecord":   j.AppendStartRecord(wire.StartRecord{Instance: math.MaxUint64, Group: 1}),
		"AppendDecisionTrace": j.AppendDecisionTrace(wire.DecisionTraceRecord{Instance: math.MaxUint64}),
	} {
		if !errors.Is(err, ErrReserved) {
			t.Fatalf("%s of instance math.MaxUint64: %v, want ErrReserved", name, err)
		}
	}
	if j.Frontier() != 6 || j.Len() != 1 {
		t.Fatalf("after refused appends: frontier %d, len %d", j.Frontier(), j.Len())
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// A journal that already holds the ID (written before it was
	// reserved) recovers with the frontier pinned at the top.
	top := appendFrame(appendFrame(nil, Entry{Decision: rec(5)}), Entry{Decision: rec(math.MaxUint64)})
	disk := t.TempDir()
	if err := os.WriteFile(filepath.Join(disk, segmentName(0)), top, 0o644); err != nil {
		t.Fatal(err)
	}
	if info, err := Replay(disk, nil); err != nil || info.Frontier != math.MaxUint64 {
		t.Fatalf("replay frontier %d, %v; want math.MaxUint64", info.Frontier, err)
	}
	j2, err := Open(disk, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = j2.Close() }()
	if got, ok := j2.Get(math.MaxUint64); j2.Frontier() != math.MaxUint64 || !ok || got != rec(math.MaxUint64) {
		t.Fatalf("reopened: frontier %d, Get(math.MaxUint64) = %+v, %v", j2.Frontier(), got, ok)
	}
}

// TestAppendOutOfBounds pins that Append refuses a decision its own
// recovery could not read back. The decoder bounds batch and class;
// a frame beyond them would be taken for a torn tail at the next Open
// and truncated away, with every acknowledged record after it.
func TestAppendOutOfBounds(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	bad := []func(*wire.DecisionRecord){
		func(r *wire.DecisionRecord) { r.Class = wire.MaxClassValue + 1 },
		func(r *wire.DecisionRecord) { r.Class = -1 },
		func(r *wire.DecisionRecord) { r.Batch = wire.MaxFrameSize + 1 },
		func(r *wire.DecisionRecord) { r.Batch = -1 },
	}
	for k, spoil := range bad {
		r := rec(uint64(2 * k))
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
		r = rec(uint64(2*k + 1))
		spoil(&r)
		if err := j.Append(r); !errors.Is(err, ErrOutOfBounds) {
			t.Fatalf("Append(%+v) = %v, want ErrOutOfBounds", r, err)
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
	if st := j2.Snapshot(); st.Decisions != len(bad) || st.TornBytes != 0 {
		t.Fatalf("reopened: %+v, want %d decisions and no torn tail", st, len(bad))
	}
}

// TestReadersDuringAppends runs Get, Len, Frontier and Snapshot
// readers against concurrent group-committed appenders (under -race,
// the check that
// readers take the page table under the read lock while publish
// writes it under the write lock): every hit reads back whole, Len and
// Frontier never fall, and every append is indexed at the end.
func TestReadersDuringAppends(t *testing.T) {
	j, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = j.Close() }()
	const (
		workers = 16
		each    = 80 // 1,280 instances: readers race a page's creation too
		readers = 4
	)
	var appenders, reading sync.WaitGroup
	done := make(chan struct{})
	for r := range readers {
		reading.Add(1)
		go func() {
			defer reading.Done()
			var lastLen int
			var lastFrontier uint64
			for i := uint64(r); ; i = (i + 7) % (workers * each) {
				select {
				case <-done:
					return
				default:
				}
				if got, ok := j.Get(i); ok && got != rec(i) {
					t.Errorf("Get(%d) = %+v mid-append", i, got)
					return
				}
				n, f := j.Len(), j.Frontier()
				if n < lastLen || f < lastFrontier || j.Snapshot().Decisions < n {
					t.Errorf("len %d then %d, frontier %d then %d", lastLen, n, lastFrontier, f)
					return
				}
				lastLen, lastFrontier = n, f
			}
		}()
	}
	for w := range workers {
		appenders.Add(1)
		go func() {
			defer appenders.Done()
			for i := range each {
				if err := j.Append(rec(uint64(i*workers + w))); err != nil {
					t.Errorf("append: %v", err)
					return
				}
			}
		}()
	}
	appenders.Wait()
	close(done)
	reading.Wait()
	if j.Len() != workers*each || j.Frontier() != workers*each {
		t.Fatalf("len %d, frontier %d after %d appends", j.Len(), j.Frontier(), workers*each)
	}
}
