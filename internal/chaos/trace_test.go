package chaos

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"indulgence/internal/wire"
	"indulgence/internal/workload"
)

// traceHeader builds the deterministic trace header the trace tests
// record under: a generated classed workload of at most maxEvents events
// (inside the intake bound of 16, so scenario load never blocks the
// clock driver) on a 4-process system, with per-class admission armed
// when the workload is classed.
func traceHeader(t *testing.T, seed int64, maxEvents int) wire.TraceHeaderRecord {
	t.Helper()
	spec := workload.GenSpec(seed, maxEvents)
	sc := Scenario{
		Seed:        seed,
		N:           4,
		T:           1,
		Algorithm:   "atplus2",
		Adaptive:    true,
		Classes:     spec.Classes(),
		BaseTimeout: 25 * time.Millisecond,
		MaxBatch:    4,
		Linger:      2 * time.Millisecond,
		MaxInflight: 4,
		Workload:    spec,
	}
	hdr := sc.TraceHeader()
	if _, err := ScenarioFromTrace(hdr); err != nil {
		t.Fatalf("header does not round-trip to a runnable scenario: %v", err)
	}
	return hdr
}

// TestTraceRecordReplay is the record→replay contract: a classed
// workload records a trace, the trace
// replays with zero audit violations, and the replayed trace encodes
// byte-identically to the recording (the fixed point — one header is
// one execution). The trace round-trips through disk on the way, so
// the audited artifact is the file format, not the in-memory struct.
func TestTraceRecordReplay(t *testing.T) {
	hdr := traceHeader(t, 21, 16)
	tr, res := RecordTrace(hdr, Options{})
	if res.Err != nil {
		t.Fatalf("record: %v", res.Err)
	}
	if !res.OK() || res.Decided == 0 {
		t.Fatalf("recording run not clean: decided=%d shed=%d failed=%d wedged=%v violations=%v\nlog:\n%s",
			res.Decided, res.Shed, res.Failed, res.Wedged, res.Violations, res.Log)
	}
	if len(tr.Events) != len(tr.Outcomes) {
		t.Fatalf("%d events but %d outcomes", len(tr.Events), len(tr.Outcomes))
	}

	path := filepath.Join(t.TempDir(), "run.trace")
	if err := workload.WriteTrace(path, tr); err != nil {
		t.Fatalf("write: %v", err)
	}
	read, err := workload.ReadTrace(path)
	if err != nil {
		t.Fatalf("read: %v", err)
	}

	rep, replayed, res2 := ReplayTrace(read, Options{})
	if res2.Err != nil {
		t.Fatalf("replay: %v", res2.Err)
	}
	if !rep.OK() {
		t.Fatalf("replay audit found violations: %v\nrecorded log:\n%s\nreplayed log:\n%s",
			rep.Violations, res.Log, res2.Log)
	}
	a, err := read.Encode()
	if err != nil {
		t.Fatal(err)
	}
	b, err := replayed.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("replayed trace is not byte-identical to the recording (%d vs %d bytes)", len(a), len(b))
	}
}

// TestTraceRecordDeterministic: recording the same header twice yields
// byte-identical traces — one seed is one workload is one execution.
func TestTraceRecordDeterministic(t *testing.T) {
	hdr := traceHeader(t, 33, 8)
	tr1, res1 := RecordTrace(hdr, Options{})
	if res1.Err != nil || !res1.OK() {
		t.Fatalf("first recording: err=%v violations=%v", res1.Err, res1.Violations)
	}
	tr2, res2 := RecordTrace(hdr, Options{})
	if res2.Err != nil || !res2.OK() {
		t.Fatalf("second recording: err=%v violations=%v", res2.Err, res2.Violations)
	}
	if res1.Log != res2.Log {
		t.Fatalf("decision logs differ\nfirst:\n%s\nsecond:\n%s", res1.Log, res2.Log)
	}
	a, _ := tr1.Encode()
	b, _ := tr2.Encode()
	if !bytes.Equal(a, b) {
		t.Fatalf("two recordings of one header differ (%d vs %d bytes)", len(a), len(b))
	}
}

// TestTraceMutationFlagged: a deliberately corrupted trace — a decided
// outcome rewritten to another value, or an event the seed never
// generated — fails the replay audit with a pointed violation.
func TestTraceMutationFlagged(t *testing.T) {
	hdr := traceHeader(t, 44, 8)
	tr, res := RecordTrace(hdr, Options{})
	if res.Err != nil || !res.OK() {
		t.Fatalf("record: err=%v violations=%v", res.Err, res.Violations)
	}

	// A rewritten decision value must surface both as a replay mismatch
	// and as a cross-lifetime agreement violation via check.Replay.
	mutated := *tr
	mutated.Outcomes = append([]wire.TraceOutcomeRecord(nil), tr.Outcomes...)
	found := false
	for i, o := range mutated.Outcomes {
		if o.Status == wire.TraceDecided {
			o.Value++
			mutated.Outcomes[i] = o
			found = true
			break
		}
	}
	if !found {
		t.Fatal("recording decided nothing")
	}
	rep, _, _ := ReplayTrace(&mutated, Options{})
	if rep.OK() || rep.Agreement {
		t.Fatalf("mutated outcome not flagged: %+v", rep)
	}
	joined := strings.Join(rep.Violations, "\n")
	if !strings.Contains(joined, "replayed") {
		t.Fatalf("violations do not name the replay mismatch: %v", rep.Violations)
	}

	// A mutated event is a validity violation: the embedded seed is the
	// source of truth and does not generate it.
	mutated = *tr
	mutated.Events = append([]wire.TraceEventRecord(nil), tr.Events...)
	mutated.Events[0].Payload++
	rep, _, _ = ReplayTrace(&mutated, Options{})
	if rep.Validity {
		t.Fatalf("mutated event not flagged: %+v", rep)
	}
}

// TestWorkloadScenarioClasses: the chaos-side classed workload path
// tags outcomes with their cohort's class and the decisions with the
// batch's class — the end-to-end SLO plumbing, on virtual time.
func TestWorkloadScenarioClasses(t *testing.T) {
	hdr := traceHeader(t, 55, 8)
	tr, res := RecordTrace(hdr, Options{})
	if res.Err != nil || !res.OK() {
		t.Fatalf("record: err=%v violations=%v", res.Err, res.Violations)
	}
	classes := make(map[int]bool)
	for i, o := range tr.Outcomes {
		ev := tr.Events[i]
		classes[ev.Class] = true
		if o.Status == wire.TraceDecided && o.Class < ev.Class {
			t.Fatalf("event %d (class %d) decided under lower class %d", i, ev.Class, o.Class)
		}
	}
	if len(classes) < 2 {
		t.Fatalf("generated workload exercised only classes %v", classes)
	}
}

// TestMultiGroupInputRefused pins the refusal of inputs written for
// several consensus groups: a trace header asking for Groups above 1 or
// for a placement across groups, deterministic or live, and a chaos spec
// with Groups above 1 fail with an error naming the field, instead of
// running at one group. A one-group header from an earlier build, whose
// live recordings carried Placement "round-robin", still audits.
func TestMultiGroupInputRefused(t *testing.T) {
	base := traceHeader(t, 33, 8)
	for _, tc := range []struct {
		field     string
		groups    int
		placement string
		live      bool
	}{
		{"Groups", 2, "round-robin", false},
		{"Groups", 3, "", true},
		{"Placement", 0, "key-affinity", false},
		{"Placement", 1, "least-loaded", true},
	} {
		hdr := base
		hdr.Groups, hdr.Placement, hdr.Deterministic = tc.groups, tc.placement, !tc.live
		_, _, res := ReplayTrace(&workload.Trace{Header: hdr}, Options{})
		if res.Err == nil || !strings.Contains(res.Err.Error(), tc.field) {
			t.Fatalf("header %+v: err %v, want a refusal naming %s", tc, res.Err, tc.field)
		}
	}
	live := base
	live.Deterministic, live.Groups, live.Placement = false, 1, "round-robin"
	if _, _, res := ReplayTrace(&workload.Trace{Header: live}, Options{}); res.Err != nil {
		t.Fatalf("one-group live header refused: %v", res.Err)
	}

	spec := Generate(5).JSON()
	multi := strings.Replace(spec, `"Horizon":`, `"Groups":3,"Horizon":`, 1)
	if _, err := ParseScenario([]byte(multi)); err == nil || !strings.Contains(err.Error(), "Groups") {
		t.Fatalf("3-group spec: %v, want a refusal naming Groups", err)
	}
	one := strings.Replace(spec, `"Horizon":`, `"Groups":1,"Horizon":`, 1)
	if sc, err := ParseScenario([]byte(one)); err != nil || sc.JSON() != spec {
		t.Fatalf("1-group spec: %v, or it re-encodes differently", err)
	}
}
