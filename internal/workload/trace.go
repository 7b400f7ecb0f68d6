package workload

// Trace file IO. A trace is a flat file of wire CRC frames (see package
// wire, "Decoding"), each holding one trace record: one
// TraceHeaderRecord first, then TraceEventRecords and
// TraceOutcomeRecords in any order. This package's tolerance policy: a
// frame the file ends inside is the torn tail of a crash mid-append and
// is dropped, as is a checksum mismatch on the final frame; a checksum
// mismatch anywhere earlier, an oversized length or a malformed record
// is an error.

import (
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"

	"indulgence/internal/wire"
)

// appendHeader, appendEvent and appendOutcome append one CRC-framed
// trace record to dst.
func appendHeader(dst []byte, r wire.TraceHeaderRecord) ([]byte, error) {
	return wire.AppendCRCFrame(dst, func(dst []byte) ([]byte, error) { return wire.AppendTraceHeaderRecord(dst, r) })
}

func appendEvent(dst []byte, r wire.TraceEventRecord) ([]byte, error) {
	return wire.AppendCRCFrame(dst, func(dst []byte) ([]byte, error) { return wire.AppendTraceEventRecord(dst, r), nil })
}

func appendOutcome(dst []byte, r wire.TraceOutcomeRecord) ([]byte, error) {
	return wire.AppendCRCFrame(dst, func(dst []byte) ([]byte, error) { return wire.AppendTraceOutcomeRecord(dst, r), nil })
}

// Trace is one decoded trace file.
type Trace struct {
	// Header describes the recorded run.
	Header wire.TraceHeaderRecord
	// Events are the recorded arrivals, sorted by Seq.
	Events []wire.TraceEventRecord
	// Outcomes are the recorded fates, sorted by Seq.
	Outcomes []wire.TraceOutcomeRecord
	// TornBytes is the length of the torn tail dropped during decode
	// (0 for a cleanly-closed trace).
	TornBytes int
}

// Encode renders the trace in canonical byte order — header, events by
// Seq, outcomes by Seq — the form whose bytes the record→replay
// fixed-point property compares. The receiver is not modified.
func (t *Trace) Encode() ([]byte, error) {
	buf, err := appendHeader(nil, t.Header)
	if err != nil {
		return nil, err
	}
	events := append([]wire.TraceEventRecord(nil), t.Events...)
	sort.Slice(events, func(i, j int) bool { return events[i].Seq < events[j].Seq })
	for _, e := range events {
		if buf, err = appendEvent(buf, e); err != nil {
			return nil, err
		}
	}
	outcomes := append([]wire.TraceOutcomeRecord(nil), t.Outcomes...)
	sort.Slice(outcomes, func(i, j int) bool { return outcomes[i].Seq < outcomes[j].Seq })
	for _, o := range outcomes {
		if buf, err = appendOutcome(buf, o); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// DecodeTrace decodes a trace from its file bytes. A torn tail — a
// final frame whose length, checksum or payload is incomplete or whose
// CRC mismatches — is dropped and reported in TornBytes; torn or
// unknown records anywhere else are errors.
func DecodeTrace(b []byte) (*Trace, error) {
	t := &Trace{}
	sawHeader := false
	for off := 0; off < len(b); {
		rec, n, err := wire.ReadCRCFrame(b[off:])
		if errors.Is(err, wire.ErrShortFrame) || (errors.Is(err, wire.ErrChecksum) && off+n == len(b)) {
			t.TornBytes = len(b) - off
			break
		}
		if err != nil {
			return nil, fmt.Errorf("workload: trace frame at offset %d: %w", off, err)
		}
		kind, used := wire.KindOf(rec), 0
		switch kind {
		case wire.KindTraceHeader:
			if sawHeader {
				return nil, fmt.Errorf("workload: duplicate trace header at offset %d", off)
			}
			sawHeader = true
			t.Header, used, err = wire.DecodeTraceHeaderRecord(rec)
		case wire.KindTraceEvent:
			var r wire.TraceEventRecord
			r, used, err = wire.DecodeTraceEventRecord(rec)
			t.Events = append(t.Events, r)
		case wire.KindTraceOutcome:
			var r wire.TraceOutcomeRecord
			r, used, err = wire.DecodeTraceOutcomeRecord(rec)
			t.Outcomes = append(t.Outcomes, r)
		default:
			err = fmt.Errorf("%w: not a trace record", wire.ErrUnknownPayload)
		}
		if err != nil {
			return nil, fmt.Errorf("workload: trace record at offset %d: %w", off, err)
		}
		if !sawHeader {
			return nil, fmt.Errorf("workload: %s before header", kind)
		}
		if used != len(rec) {
			return nil, fmt.Errorf("workload: trace record at offset %d: %d trailing bytes", off, len(rec)-used)
		}
		off += n
	}
	if !sawHeader {
		return nil, fmt.Errorf("workload: trace has no header")
	}
	sort.Slice(t.Events, func(i, j int) bool { return t.Events[i].Seq < t.Events[j].Seq })
	sort.Slice(t.Outcomes, func(i, j int) bool { return t.Outcomes[i].Seq < t.Outcomes[j].Seq })
	return t, nil
}

// WriteTrace writes the trace to path in canonical order.
func WriteTrace(path string, t *Trace) error {
	buf, err := t.Encode()
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}

// ReadTrace reads and decodes the trace at path.
func ReadTrace(path string) (*Trace, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return DecodeTrace(b)
}

// Writer streams a trace to disk during a live recording: the header
// immediately, then events and outcomes in completion order, safe for
// concurrent use by the recording run's client goroutines. Live
// recordings are not in canonical byte order — replay re-canonicalizes
// through Encode.
type Writer struct {
	mu  sync.Mutex
	f   *os.File
	err error
}

// NewWriter creates path and writes the header frame.
func NewWriter(path string, hdr wire.TraceHeaderRecord) (*Writer, error) {
	enc, err := appendHeader(nil, hdr)
	if err != nil {
		return nil, err
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if _, err := f.Write(enc); err != nil {
		f.Close()
		return nil, err
	}
	return &Writer{f: f}, nil
}

// Event appends one arrival record.
func (w *Writer) Event(r wire.TraceEventRecord) error {
	return w.write(appendEvent(nil, r))
}

// Outcome appends one outcome record.
func (w *Writer) Outcome(r wire.TraceOutcomeRecord) error {
	return w.write(appendOutcome(nil, r))
}

// write appends one encoded frame; the first failure latches.
func (w *Writer) write(frame []byte, err error) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	if err == nil {
		_, err = w.f.Write(frame)
	}
	w.err = err
	return err
}

// Close flushes and closes the file.
func (w *Writer) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		w.f.Close()
		return w.err
	}
	return w.f.Close()
}
