package journal

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"

	"indulgence/internal/wire"
)

// Entry is one journal record: an instance-start claim (appended
// before the instance's first frame may reach the network), a
// decision, or a decision-trace record (the introspection context of
// one launch choice).
type Entry struct {
	// Start reports an instance-start claim; for starts, only
	// Decision.Instance and Alg are meaningful.
	Start bool
	// Alg is the algorithm tag of a start claim: the algorithm the
	// claiming service launches the instance with ("" when unrecorded,
	// as in records written before the tag existed). check.Replay uses
	// it to audit algorithm choices across process lifetimes.
	Alg string
	// Decision is the decided outcome of the instance. For starts, its
	// Instance and Group carry the claim's addressing; the remaining
	// fields are zero.
	Decision wire.DecisionRecord
	// Trace, when non-nil, makes this a decision-trace entry: the
	// controller/selector/admission context the service held when it
	// launched the instance. Start and Decision are then zero.
	Trace *wire.DecisionTraceRecord
}

// Instance returns the entry's consensus-instance ID.
func (e Entry) Instance() uint64 {
	if e.Trace != nil {
		return e.Trace.Instance
	}
	return e.Decision.Instance
}

// appendFrame appends the framed encoding of e to dst. Annotations are
// cut to the codec's bounds rather than erroring — an oversized
// algorithm tag is truncated, a trace record clamped: a claim must never
// fail for its label's sake — so the encoders cannot fail here.
func appendFrame(dst []byte, e Entry) []byte {
	dst, err := wire.AppendCRCFrame(dst, func(dst []byte) ([]byte, error) {
		switch {
		case e.Trace != nil:
			return wire.AppendDecisionTraceRecord(dst, e.Trace.Clamped())
		case e.Start:
			return wire.AppendStartRecord(dst, wire.StartRecord{Instance: e.Decision.Instance,
				Alg: e.Alg[:min(len(e.Alg), wire.MaxAlgNameLen)], Group: e.Decision.Group})
		default:
			return wire.AppendDecisionRecord(dst, e.Decision), nil
		}
	})
	if err != nil {
		panic(fmt.Sprintf("journal: in-bounds record failed to encode: %v", err))
	}
	return dst
}

// decodeEntry decodes one frame payload, running the one decoder its
// marker byte selects; ok requires the payload to be exactly one
// well-formed record.
func decodeEntry(payload []byte) (Entry, bool) {
	var (
		e   Entry
		n   int
		err error
	)
	switch wire.KindOf(payload) {
	case wire.KindDecision:
		e.Decision, n, err = wire.DecodeDecisionRecord(payload)
	case wire.KindStart:
		var rec wire.StartRecord
		rec, n, err = wire.DecodeStartRecord(payload)
		e = Entry{Start: true, Alg: rec.Alg,
			Decision: wire.DecisionRecord{Instance: rec.Instance, Group: rec.Group}}
	case wire.KindDecisionTrace:
		e.Trace = new(wire.DecisionTraceRecord)
		*e.Trace, n, err = wire.DecodeDecisionTraceRecord(payload)
	default:
		return Entry{}, false
	}
	if err != nil || n != len(payload) {
		return Entry{}, false
	}
	return e, true
}

// minFrame is the smallest frame appendSegment accepts: a CRC frame
// header around a two-byte record (a start claim written before the
// algorithm tag existed: its marker and a one-byte instance).
const minFrame = wire.CRCFrameHeader + 2

// appendSegment parses one segment's bytes — a sequence of wire CRC
// frames (see package wire, "Decoding"), one record each — into its
// longest intact prefix of entries, appended to dst. It returns the
// extended slice, the byte offset parsing stopped at, and whether
// trailing bytes were dropped. No decoded field aliases b: strings and
// trace records are copies, so b may be reused once it returns. dst
// grows once, to room for the most entries b can hold (len(b)/minFrame),
// so a dst reused across segments takes one allocation, not a series. The
// journal's tolerance policy is that anything wrong is the torn tail at
// that offset: whatever wire.ReadCRCFrame reports (a short header or
// payload, a bogus length, a CRC mismatch) and a payload that is not
// exactly one well-formed record alike. appendSegment never fails —
// every input has a well-defined intact prefix, possibly empty.
func appendSegment(dst []Entry, b []byte) (entries []Entry, intact int, torn bool) {
	entries = slices.Grow(dst, len(b)/minFrame)
	for off := 0; off < len(b); {
		payload, n, err := wire.ReadCRCFrame(b[off:])
		if err != nil {
			return entries, off, true
		}
		e, ok := decodeEntry(payload)
		if !ok {
			return entries, off, true
		}
		entries = append(entries, e)
		off += n
	}
	return entries, len(b), false
}

// readSegment reads the segment file at path into buf, replacing its
// contents; buf keeps its capacity from one segment to the next, so it
// grows only for a segment larger than any read before.
func readSegment(buf *bytes.Buffer, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	buf.Reset()
	if st, err := f.Stat(); err == nil {
		// ReadFrom grows buf unless MinRead bytes are free for each
		// read, the final empty one included.
		buf.Grow(int(st.Size()) + bytes.MinRead)
	}
	_, err = buf.ReadFrom(f)
	return err
}

// advance returns the frontier after an entry of instance: 1 + the
// highest instance seen, saturating at math.MaxUint64 — the one ID no
// append accepts — so a record of it already on disk cannot wrap the
// frontier to 0.
func advance(frontier, instance uint64) uint64 {
	if instance == math.MaxUint64 {
		return instance
	}
	return max(frontier, instance+1)
}

// segmentName formats the file name of segment idx.
func segmentName(idx int) string { return fmt.Sprintf("seg-%08d.wal", idx) }

// listSegments returns the journal directory's segment indices in
// ascending order. A directory holding group-NNNN subdirectories fails
// with ErrGroupLayout.
func listSegments(dir string) ([]int, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var idxs []int
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() && strings.HasPrefix(name, "group-") {
			return nil, fmt.Errorf("%w: %s", ErrGroupLayout, filepath.Join(dir, name))
		}
		if e.IsDir() || !strings.HasPrefix(name, "seg-") || !strings.HasSuffix(name, ".wal") {
			continue
		}
		idx, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, "seg-"), ".wal"))
		if err != nil {
			return nil, fmt.Errorf("journal: stray segment name %q", name)
		}
		idxs = append(idxs, idx)
	}
	sort.Ints(idxs)
	return idxs, nil
}

// syncDir fsyncs the directory itself so segment creation and truncation
// survive a crash of the file system's metadata. Best-effort: some file
// systems reject directory fsync, which recovery tolerates anyway.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	_ = d.Sync()
	_ = d.Close()
}

// ReplayInfo summarizes one read of a journal directory.
type ReplayInfo struct {
	// Decisions, Starts and Traces count the intact entries replayed,
	// by kind.
	Decisions, Starts, Traces int
	// Segments is the number of segment files read.
	Segments int
	// TornBytes is the size of the dropped torn tail of the final
	// segment (0 when the journal ends cleanly).
	TornBytes int
	// Frontier is 1 + the highest instance ID replayed, over starts
	// and decisions alike (0 when empty), saturating at
	// math.MaxUint64: the first instance ID a recovered service may
	// assign.
	Frontier uint64
}

// Replay reads every intact entry of the journal at dir in append
// order, calling fn for each; a non-nil fn error stops the replay and is
// returned. A torn tail is tolerated only on the final segment — that is
// the only place a crash can tear — and is reported in ReplayInfo;
// mid-journal corruption fails with ErrCorrupt, and fn sees no entry of
// the damaged segment. A directory in the retired per-group layout
// fails with ErrGroupLayout, as Open does. fn may keep the entries it
// is handed: none shares memory with the buffers Replay reuses. Replay
// opens nothing for writing and is safe on a journal another process
// wrote.
func Replay(dir string, fn func(Entry) error) (ReplayInfo, error) {
	info, _, err := replay(dir, fn)
	return info, err
}

// History is a journal read back from disk as audit input: its
// decisions, start claims and decision traces in append order.
type History struct {
	// Records and Starts are the input shape check.Replay audits. Starts
	// keep their group tags, which journals written by several
	// consensus groups carry, so the audit can check them.
	Records []wire.DecisionRecord
	Starts  []wire.StartRecord
	// Traces are the decision-trace entries — introspection context,
	// not claims or outcomes, so the consensus audit does not read them.
	Traces []wire.DecisionTraceRecord
	// Segments, TornBytes and Frontier are Replay's ReplayInfo fields.
	Segments, TornBytes int
	Frontier            uint64
}

// ReadHistory reads back the journal at dir as History — the one place
// journal entries become audit records. Like Replay it opens nothing for
// writing and tolerates a torn final tail.
func ReadHistory(dir string) (History, error) {
	var h History
	info, err := Replay(dir, func(e Entry) error {
		switch {
		case e.Trace != nil:
			h.Traces = append(h.Traces, *e.Trace)
		case e.Start:
			h.Starts = append(h.Starts, wire.StartRecord{
				Instance: e.Instance(), Alg: e.Alg, Group: e.Decision.Group})
		default:
			h.Records = append(h.Records, e.Decision)
		}
		return nil
	})
	if err != nil {
		return History{}, fmt.Errorf("journal: replay %s: %w", dir, err)
	}
	h.Segments, h.TornBytes, h.Frontier = info.Segments, info.TornBytes, info.Frontier
	return h, nil
}

// replay is Replay, also reporting the index of the final segment (0 in
// an empty directory): the one Open truncates by TornBytes and resumes
// appending to. Every segment is read into one buffer and parsed into
// one entry slice, both reused segment after segment; a segment is
// parsed whole before fn sees any of its entries, so a segment torn
// mid-journal delivers none.
func replay(dir string, fn func(Entry) error) (info ReplayInfo, last int, err error) {
	idxs, err := listSegments(dir)
	if err != nil {
		return info, 0, err
	}
	var (
		buf     bytes.Buffer
		entries []Entry
	)
	for i, idx := range idxs {
		if err := readSegment(&buf, filepath.Join(dir, segmentName(idx))); err != nil {
			return info, 0, err
		}
		b := buf.Bytes()
		var (
			intact int
			torn   bool
		)
		entries, intact, torn = appendSegment(entries[:0], b)
		if torn && i != len(idxs)-1 {
			return info, 0, fmt.Errorf("%w: %s has a torn tail mid-journal", ErrCorrupt, segmentName(idx))
		}
		last = idx
		info.Segments++
		info.TornBytes = len(b) - intact
		for _, e := range entries {
			if fn != nil {
				if err := fn(e); err != nil {
					return info, 0, err
				}
			}
			switch {
			case e.Trace != nil:
				info.Traces++
			case e.Start:
				info.Starts++
			default:
				info.Decisions++
			}
			info.Frontier = advance(info.Frontier, e.Instance())
		}
	}
	return info, last, nil
}
