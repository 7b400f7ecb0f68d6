// Package journal is the durable decision log of the consensus service:
// an append-only, fsync-batched, CRC-framed record of every decided
// instance, written before the decision is served. It is what makes the
// paper's per-decision price (the t+2 round floor) a price paid once —
// a restarted service replays the journal instead of re-running
// consensus for instances it already decided, and resumes its
// instance-ID frontier past the highest journaled ID, so no instance can
// ever decide twice across process lifetimes.
//
// # Disk format
//
// A journal is a directory of segment files seg-00000000.wal,
// seg-00000001.wal, ... Each segment is a sequence of wire CRC frames
// (see package wire, "Decoding"), each holding one record of the wire
// envelope family — a wire.DecisionRecord, a wire.StartRecord claiming an instance
// ID before its first frame may touch the network (so a recovered
// frontier can never collide with in-flight frames of an instance that
// crashed undecided), or a wire.DecisionTraceRecord carrying the
// introspection context of one launch choice. Segments rotate once
// they exceed
// Options.SegmentBytes. The format is append-only and self-checking;
// no index or manifest files exist — recovery is a linear scan.
//
// # Durability and recovery contract
//
// The two record kinds carry two durability classes. Append (decisions)
// returns only after an fsync. The writer takes no timer: it writes
// whatever has queued, fsyncs once, and the decisions that queue during
// that fsync form the next group (group commit). A lone decision is
// fsynced at once, without waiting for company; under load the fsync's
// own duration is the window, so fsyncs per decision fall as load
// rises. AppendStart (instance-ID claims) returns after its write
// completes, without waiting for fsync: the in-flight frames a start
// record guards against can only survive a process crash, which
// page-cache writes survive too, and a machine crash that could lose
// the write also loses the frames — while every later decision fsync
// makes earlier start writes durable as a side effect.
//
// A crash can therefore lose only the torn tail of the final segment:
// recovery (Open or Replay) keeps every intact prefix record, drops the
// torn tail (Open truncates it away), and fails loudly on mid-journal
// corruption, which no crash can produce. Records whose append call
// never returned may still be present — durable but unacknowledged —
// which is the safe direction: serving a journaled decision is always
// correct, re-deciding one is not.
package journal

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"indulgence/internal/metrics"
	"indulgence/internal/stats"
	"indulgence/internal/wire"
)

// Journal errors.
var (
	// ErrClosed reports use of a closed journal.
	ErrClosed = errors.New("journal: closed")
	// ErrCorrupt reports damage recovery cannot attribute to a torn
	// tail (corruption before the final segment's end).
	ErrCorrupt = errors.New("journal: corrupt")
	// ErrLocked reports a journal directory already owned by a live
	// journal (this process or another).
	ErrLocked = errors.New("journal: directory locked by another journal")
	// ErrReserved reports an append of instance ID math.MaxUint64, which
	// no record may carry: the frontier past it does not exist.
	ErrReserved = errors.New("journal: instance ID math.MaxUint64 is reserved")
	// ErrOutOfBounds reports a decision whose batch or class lies
	// outside what wire.DecodeDecisionRecord reads back: recovery would
	// take its frame for a torn tail or mid-journal corruption.
	ErrOutOfBounds = errors.New("journal: decision field outside the record codec's bounds")
	// ErrGroupLayout refuses a directory in the retired per-group layout
	// (one group-NNNN subdirectory per consensus group): resuming there
	// would restart the frontier below IDs that already touched the
	// network, and auditing its empty top level would pass vacuously.
	// Each subdirectory still reads on its own as a plain journal.
	ErrGroupLayout = errors.New("journal: directory holds per-group group-NNNN subdirectories (the retired layout; read each one on its own)")
)

// Options configures a journal.
type Options struct {
	// SegmentBytes rotates the active segment once its size reaches
	// this many bytes (default 1 MiB). Rotation happens between
	// batches, so a segment can overshoot by at most one batch.
	SegmentBytes int64
	// NoSync skips fsync entirely. Replay still works, but a crash may
	// lose acknowledged records — only for tests and throwaway
	// journals.
	NoSync bool
	// OnAppend, when non-nil, is invoked on the writer goroutine after
	// each entry has become durable and before its Append returns —
	// the observability and fault-injection hook the crash-restart
	// tests use to stop a service inside the journaled-but-unserved
	// window. It must not call back into the journal.
	OnAppend func(Entry)
	// Metrics, when non-nil, registers the journal's instruments on
	// this registry (entries by kind, fsync count and latency, segment
	// count). They carry no group label. Entry counters include the entries replayed at Open,
	// so a recovered journal's series resume at their true totals.
	Metrics *metrics.Registry
}

// withDefaults returns o with zero fields replaced by defaults.
func (o Options) withDefaults() Options {
	if o.SegmentBytes == 0 {
		o.SegmentBytes = 1 << 20
	}
	if o.SegmentBytes < wire.CRCFrameHeader {
		o.SegmentBytes = wire.CRCFrameHeader
	}
	return o
}

// Stats is a point-in-time snapshot of journal counters. Starts, Traces,
// Syncs and Segments are reads of the journal's registry instruments
// (indulgence_journal_entries_total by kind, _fsyncs_total, _segments).
type Stats struct {
	// Decisions, Starts and Traces count intact entries by kind
	// (replayed at Open plus appended since); Decisions counts
	// distinct instances.
	Decisions, Starts, Traces int
	// Appends counts entries appended by this process. Batches counts
	// the group commits that resolved decisions; Syncs counts completed
	// fsyncs, one per group commit plus one per segment rotation. The
	// two differ otherwise only once the journal has failed: a group
	// resolved by a latched write or fsync error is a batch without an
	// fsync. Appends/Syncs is the group-commit fan-in.
	Appends, Batches, Syncs int
	// Segments is the number of segment files.
	Segments int
	// TornBytes is the size of the torn tail truncated at Open.
	TornBytes int
	// Frontier is 1 + the highest journaled instance ID.
	Frontier uint64
	// SyncLatency summarizes fsync wall-clock latency over a bounded
	// uniform sample — the durability component of decision latency.
	SyncLatency stats.LatencySummary
}

// maxGroup bounds how many decisions one fsync may carry: the writer
// fsyncs early if its drain of intake never finds it empty, so appenders
// that keep arriving cannot hold a group's durability back forever.
const maxGroup = 1024

// appendReq is one enqueued append waiting for persistence: a write for
// start records, a write plus fsync for decisions.
type appendReq struct {
	entry Entry
	sync  bool
	done  chan error
}

// Journal is an open decision log. All methods are safe for concurrent
// use; a single writer goroutine serializes disk writes and batches
// fsyncs across concurrent Appends.
type Journal struct {
	dir  string
	opts Options

	intake     chan appendReq
	writerDone chan struct{}

	// mu guards closed and the recovered/live state below; Append
	// holds it for reading across the intake send so Close never
	// closes the channel under a sender.
	mu     sync.RWMutex
	closed bool
	// index holds the last journaled decision of every decided
	// instance in pages of slots that carry no instance ID (see page):
	// 28 bytes per decision at any spacing of the IDs, plus a page's
	// fixed part per 1,024-ID range, and O(1) Get.
	index     index
	frontier  uint64
	appends   int
	batches   int
	tornBytes int
	syncLat   *stats.Reservoir[time.Duration]

	// lockFile holds the flock that makes this process the directory's
	// only writer; the kernel drops it if the process dies.
	lockFile *os.File

	// The instruments entries by kind, fsyncs and segment files are
	// counted in, once (live but unrendered when Options.Metrics is nil);
	// Snapshot reads them back.
	mDecisions, mStarts, mTraces, mSyncs *metrics.Counter
	mSyncNs                              *metrics.Histogram
	mSegments                            *metrics.Gauge

	// Writer-goroutine state: the active segment and its size.
	seg     *os.File
	segIdx  int
	segSize int64
	buf     []byte
}

// Open opens (creating if needed) the journal at dir, replays every
// segment to rebuild the decision index and instance frontier, truncates
// a torn tail off the final segment, and readies the final segment for
// appending. The directory is flock-guarded: a second live Open of the
// same dir — a concurrently running serve, say — fails with ErrLocked
// instead of interleaving two writers' segments, while a crashed
// owner's lock is released by the kernel, so recovery is never blocked
// by a stale lock file. The caller owns the returned journal and must
// Close it.
func Open(dir string, opts Options) (*Journal, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	lock, err := os.OpenFile(filepath.Join(dir, "LOCK"), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, err
	}
	if err := syscall.Flock(int(lock.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		_ = lock.Close()
		return nil, fmt.Errorf("%w: %s", ErrLocked, dir)
	}
	j := &Journal{
		dir:        dir,
		opts:       opts,
		lockFile:   lock,
		intake:     make(chan appendReq, 256),
		writerDone: make(chan struct{}),
		syncLat:    stats.NewReservoirSeeded[time.Duration](1<<14, 0x6a6f75726e616c), // "journal"
	}
	kind := func(k string) metrics.Label { return metrics.Label{Key: "kind", Value: k} }
	const entriesHelp = "intact journal entries by record kind, replayed at open plus appended since"
	j.mDecisions = opts.Metrics.Counter("indulgence_journal_entries_total", entriesHelp, kind("decision"))
	j.mStarts = opts.Metrics.Counter("indulgence_journal_entries_total", entriesHelp, kind("start"))
	j.mTraces = opts.Metrics.Counter("indulgence_journal_entries_total", entriesHelp, kind("trace"))
	j.mSyncs = opts.Metrics.Counter("indulgence_journal_fsyncs_total",
		"fsyncs taken by the journal writer (group commits)")
	j.mSyncNs = opts.Metrics.Histogram("indulgence_journal_fsync_ns",
		"fsync wall-clock latency in nanoseconds", 1<<12, 1<<30)
	j.mSegments = opts.Metrics.Gauge("indulgence_journal_segments",
		"segment files in the journal directory")

	fail := func(err error) (*Journal, error) {
		_ = lock.Close() // closing the fd drops the flock
		return nil, err
	}
	info, last, err := replay(dir, func(e Entry) error {
		j.publish(e)
		return nil
	})
	if err != nil {
		return fail(err)
	}
	j.segIdx, j.tornBytes = last, info.TornBytes
	seg, err := os.OpenFile(filepath.Join(dir, segmentName(last)), os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return fail(err)
	}
	st, err := seg.Stat()
	if err == nil {
		j.seg, j.segSize = seg, st.Size()-int64(info.TornBytes)
		if info.TornBytes > 0 {
			// The crash window: drop the torn tail so appends resume on
			// a clean frame boundary.
			err = seg.Truncate(j.segSize)
		}
	}
	if err != nil {
		_ = seg.Close()
		return fail(fmt.Errorf("journal: ready %s for appending: %w", segmentName(last), err))
	}
	j.mSegments.Set(int64(max(info.Segments, 1)))
	if info.TornBytes > 0 || info.Segments == 0 {
		syncDir(dir)
	}
	go j.writer()
	return j, nil
}

// Dir returns the journal's directory.
func (j *Journal) Dir() string { return j.dir }

// Append makes the decision record rec durable and returns once it is
// fsynced (or the write failed). An append that finds the writer idle
// is fsynced at once; appends that queue while an fsync runs share the
// next one, so under load durability costs one fsync per group, not per
// decision.
//
// Append refuses the reserved instance ID math.MaxUint64 (ErrReserved)
// and a batch or class the record codec cannot read back
// (ErrOutOfBounds).
func (j *Journal) Append(rec wire.DecisionRecord) error {
	if rec.Batch < 0 || rec.Batch > wire.MaxFrameSize || rec.Class < 0 || rec.Class > wire.MaxClassValue {
		return fmt.Errorf("%w: batch %d, class %d", ErrOutOfBounds, rec.Batch, rec.Class)
	}
	return j.append(Entry{Decision: rec}, true)
}

// AppendStart claims every instance ID through instance: the recovered
// frontier resumes past it. The service appends a claim before a
// claimed instance may send its first frame (one block-claim covers
// many launches), so the recovered frontier covers every ID that ever
// touched the network — including instances that crashed undecided —
// and no successor can collide with their in-flight frames. alg tags
// the claim with the algorithm the instance is launched with ("" when
// the caller does not track one); the adaptive service claims per
// instance so every instance's algorithm choice is on record, and
// check.Replay audits the tags across lifetimes.
// AppendStart returns once the record is written, without
// waiting for an fsync: the frames it guards against can only survive a
// process crash, which page-cache writes survive too, while a machine
// crash that could lose the write also loses the frames. (Any later
// decision fsync makes earlier start writes durable as a side effect.)
// Like Append, it refuses instance math.MaxUint64 (ErrReserved).
func (j *Journal) AppendStart(instance uint64, alg string) error {
	return j.AppendStartRecord(wire.StartRecord{Instance: instance, Alg: alg})
}

// AppendStartRecord is AppendStart with the full record, group tag
// included: check.Replay audits the tags that journals of earlier
// multi-group runtimes carry (an instance ID journaled under two groups
// is an agreement violation). It shares AppendStart's no-fsync contract.
func (j *Journal) AppendStartRecord(r wire.StartRecord) error {
	return j.append(Entry{Start: true, Alg: r.Alg,
		Decision: wire.DecisionRecord{Instance: r.Instance, Group: r.Group}}, false)
}

// AppendDecisionTrace journals the introspection context of one launch
// choice — the controller/selector/admission state behind a start
// claim. It shares AppendStart's no-fsync durability class: a trace is
// an audit annotation of the claim it accompanies, and any later
// decision fsync makes it durable as a side effect. Out-of-bounds
// annotation fields are clamped rather than erroring, like an
// oversized start-claim algorithm tag; instance math.MaxUint64 is
// refused (ErrReserved).
func (j *Journal) AppendDecisionTrace(r wire.DecisionTraceRecord) error {
	return j.append(Entry{Trace: &r}, false)
}

func (j *Journal) append(e Entry, sync bool) error {
	if e.Instance() == math.MaxUint64 {
		return ErrReserved
	}
	req := appendReq{entry: e, sync: sync, done: make(chan error, 1)}
	j.mu.RLock()
	if j.closed {
		j.mu.RUnlock()
		return ErrClosed
	}
	j.intake <- req
	j.mu.RUnlock()
	return <-req.done
}

// Get returns the journaled record of an instance, if any.
func (j *Journal) Get(instance uint64) (wire.DecisionRecord, bool) {
	j.mu.RLock()
	defer j.mu.RUnlock()
	return j.index.get(instance)
}

// Frontier returns 1 + the highest journaled instance ID (0 when the
// journal is empty): the first instance ID a recovered service may
// assign. It saturates at math.MaxUint64, an ID no append accepts.
func (j *Journal) Frontier() uint64 {
	j.mu.RLock()
	defer j.mu.RUnlock()
	return j.frontier
}

// Len returns the number of distinct journaled instances.
func (j *Journal) Len() int {
	j.mu.RLock()
	defer j.mu.RUnlock()
	return j.index.n
}

// Snapshot returns current counters and the fsync-latency summary.
func (j *Journal) Snapshot() Stats {
	j.mu.RLock()
	defer j.mu.RUnlock()
	return Stats{
		Decisions:   j.index.n,
		Starts:      int(j.mStarts.Value()),
		Traces:      int(j.mTraces.Value()),
		Appends:     j.appends,
		Batches:     j.batches,
		Syncs:       int(j.mSyncs.Value()),
		Segments:    int(j.mSegments.Value()),
		TornBytes:   j.tornBytes,
		Frontier:    j.frontier,
		SyncLatency: stats.SummarizeDurations(j.syncLat.Values()),
	}
}

// Close drains queued appends, makes them durable, and closes the active
// segment. Close is idempotent; Appends racing with it either complete
// durably or fail with ErrClosed.
func (j *Journal) Close() error {
	j.mu.Lock()
	if j.closed {
		j.mu.Unlock()
		return nil
	}
	j.closed = true
	j.mu.Unlock()
	close(j.intake)
	<-j.writerDone
	err := j.seg.Close()
	_ = j.lockFile.Close() // drops the flock
	return err
}

// writer is the single disk-writing goroutine. It blocks for one append,
// then drains intake without blocking, writing each append to the
// segment as it arrives: start appends resolve right after their write,
// decision appends join the pending group. Once intake is empty it
// fsyncs the group once and resolves it. Appends that arrive during
// that fsync queue in intake and form the next group, so the group size
// is set by the fsync's duration, not by a timer — a decision's
// durability latency is at most the fsync in progress plus its own.
func (j *Journal) writer() {
	defer close(j.writerDone)
	var (
		pending []appendReq // written decisions awaiting their fsync
		fatal   error       // first disk error; latches the journal failed
	)
	flush := func() {
		if len(pending) == 0 {
			return
		}
		err := fatal
		if err == nil {
			err = j.fsync()
			if err != nil {
				fatal = err
			}
		}
		j.mu.Lock()
		j.batches++
		if err == nil {
			j.appends += len(pending)
			for _, req := range pending {
				j.publish(req.entry)
			}
		}
		j.mu.Unlock()
		for _, req := range pending {
			if err == nil && j.opts.OnAppend != nil {
				j.opts.OnAppend(req.entry)
			}
			req.done <- err
		}
		pending = pending[:0]
	}
	take := func(req appendReq) {
		if fatal != nil {
			req.done <- fatal
			return
		}
		if err := j.write(req.entry); err != nil {
			// A failed write may have left a partial frame in the
			// segment: every frame appended after it would sit past the
			// torn point and be silently dropped by recovery even if
			// fsynced — an acknowledged-but-unrecoverable record. Latch
			// the error so every later append fails instead, after one
			// last fsync attempt for the intact frames already pending
			// (they precede the tear).
			fatal = err
			flush()
			req.done <- err
			return
		}
		if req.sync && !j.opts.NoSync {
			pending = append(pending, req)
			if len(pending) >= maxGroup {
				flush()
			}
			return
		}
		// Start records (and every append under NoSync) resolve at write
		// completion.
		j.mu.Lock()
		j.appends++
		j.publish(req.entry)
		j.mu.Unlock()
		if j.opts.OnAppend != nil {
			j.opts.OnAppend(req.entry)
		}
		req.done <- nil
	}
	for {
		req, open := <-j.intake // block for the group's first append
	drain:
		for open {
			take(req)
			select {
			case req, open = <-j.intake:
			default:
				break drain
			}
		}
		flush()
		if !open {
			return
		}
	}
}

// write rotates if due and appends one framed entry to the active
// segment. Rotation fsyncs implicitly via the segment close path only
// when needed: the next explicit fsync covers whatever the new segment
// accumulates.
func (j *Journal) write(e Entry) error {
	if err := j.rotateIfNeeded(); err != nil {
		return err
	}
	j.buf = appendFrame(j.buf[:0], e)
	if _, err := j.seg.Write(j.buf); err != nil {
		return err
	}
	j.segSize += int64(len(j.buf))
	return nil
}

// fsync syncs the active segment, timing it into the latency sample.
func (j *Journal) fsync() error {
	begin := time.Now()
	if err := j.seg.Sync(); err != nil {
		return err
	}
	j.recordSync(time.Since(begin))
	return nil
}

// publish folds one durable entry into the in-memory state; callers
// hold mu (Open's replay runs before any reader exists).
func (j *Journal) publish(e Entry) {
	switch {
	case e.Trace != nil:
		j.mTraces.Inc()
	case e.Start:
		j.mStarts.Inc()
	default:
		j.index.put(e.Decision)
		j.mDecisions.Inc()
	}
	j.frontier = advance(j.frontier, e.Instance())
}

// recordSync accounts one fsync; the stats lock guards the sample.
func (j *Journal) recordSync(d time.Duration) {
	j.mu.Lock()
	j.syncLat.Add(d)
	j.mu.Unlock()
	j.mSyncs.Inc()
	j.mSyncNs.Observe(int64(d))
}

// rotateIfNeeded closes the active segment and opens the next one when
// the active segment has reached its size budget. The outgoing segment
// is fsynced before it closes, so a pending group commit's frames can
// never rotate away unsynced.
func (j *Journal) rotateIfNeeded() error {
	if j.segSize < j.opts.SegmentBytes {
		return nil
	}
	if !j.opts.NoSync {
		if err := j.fsync(); err != nil {
			return err
		}
	}
	if err := j.seg.Close(); err != nil {
		return err
	}
	j.segIdx++
	seg, err := os.OpenFile(filepath.Join(j.dir, segmentName(j.segIdx)),
		os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	syncDir(j.dir)
	j.seg, j.segSize = seg, 0
	j.mSegments.Add(1)
	return nil
}
