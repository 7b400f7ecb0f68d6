package chaos

import (
	"fmt"
	goruntime "runtime"
	"time"

	"indulgence/internal/check"
	"indulgence/internal/model"
	"indulgence/internal/wire"
	"indulgence/internal/workload"
)

// This file is the trace record/replay engine: a workload trace header
// (wire.TraceHeaderRecord) fully determines one deterministic execution
// — system shape, algorithm, batching knobs, admission classes, and the
// embedded workload spec whose seed regenerates the event stream — so
// recording a trace and replaying it are the SAME operation, run twice.
// RecordTrace executes the header's run on a fresh virtual clock behind
// a faultless fault fabric (every delivery still a tagged clock event,
// which is what makes the run replayable) and returns the trace;
// ReplayTrace re-executes a recorded trace's header and audits the
// replayed decisions against the recorded ones. A deterministic trace
// is a fixed point: RecordTrace(tr.Header) re-encodes byte-identically.

// ScenarioFromTrace reconstructs the runnable scenario a deterministic
// trace header describes. The reconstruction is canonical — horizon and
// instance deadline are derived from the header, never carried in it —
// so the recorder and every replayer run the exact same scenario.
func ScenarioFromTrace(hdr wire.TraceHeaderRecord) (Scenario, error) {
	if hdr.Version != wire.TraceFormatVersion {
		return Scenario{}, fmt.Errorf("chaos: trace format v%d, this build speaks v%d", hdr.Version, wire.TraceFormatVersion)
	}
	if err := refuseGroups("trace header", hdr.Groups, hdr.Placement); err != nil {
		return Scenario{}, err
	}
	spec, err := workload.ParseSpec([]byte(hdr.Spec))
	if err != nil {
		return Scenario{}, fmt.Errorf("chaos: trace spec: %w", err)
	}
	base := time.Duration(hdr.TimeoutNanos)
	// Post-load, every round completes within a few base timeouts; the
	// Generate slack (64×base past the horizon) clears even a fully
	// backed-off detector.
	horizon := spec.Duration() + base
	sc := Scenario{
		Seed:            hdr.Seed,
		N:               hdr.N,
		T:               hdr.T,
		Algorithm:       hdr.Algorithm,
		Adaptive:        hdr.Classes > 0,
		Classes:         hdr.Classes,
		BaseTimeout:     base,
		MaxBatch:        hdr.MaxBatch,
		Linger:          time.Duration(hdr.LingerNanos),
		MaxInflight:     hdr.MaxInflight,
		InstanceTimeout: horizon + 64*base,
		Horizon:         horizon,
		Workload:        spec,
	}
	return sc, sc.Validate()
}

// TraceHeader derives the deterministic trace header under which sc's
// workload run records. It is the inverse of ScenarioFromTrace for the
// fields a header carries; sc must be a valid workload scenario.
func (sc Scenario) TraceHeader() wire.TraceHeaderRecord {
	return wire.TraceHeaderRecord{
		Version:       wire.TraceFormatVersion,
		Deterministic: true,
		Seed:          sc.Seed,
		N:             sc.N,
		T:             sc.T,
		MaxBatch:      sc.MaxBatch,
		MaxInflight:   sc.MaxInflight,
		LingerNanos:   int64(sc.Linger),
		TimeoutNanos:  int64(sc.BaseTimeout),
		Algorithm:     sc.Algorithm,
		Classes:       sc.Classes,
		Spec:          sc.Workload.JSON(),
	}
}

// RecordTrace executes the deterministic run a trace header describes
// and returns its trace alongside the audited chaos result. Determinism
// needs one scheduler thread: GOMAXPROCS is pinned to 1 for the run and
// restored after (same-instant goroutine wakeups must interleave
// identically on every execution).
func RecordTrace(hdr wire.TraceHeaderRecord, opts Options) (*workload.Trace, Result) {
	sc, err := ScenarioFromTrace(hdr)
	if err != nil {
		return nil, Result{Err: err}
	}
	defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(1))
	res := Run(sc, opts)
	if res.Err != nil {
		return nil, res
	}
	tr := &workload.Trace{Header: hdr, Outcomes: res.Outcomes}
	for _, e := range sc.Workload.Events() {
		tr.Events = append(tr.Events, e.Record())
	}
	return tr, res
}

// ReplayTrace re-executes a recorded trace and audits the replay
// against the recording. A deterministic recording must reproduce
// exactly — every replayed outcome record equal to its recorded one —
// and additionally passes both lifetimes through check.Replay, so a
// recorded decision that resurfaces with another value is flagged as a
// cross-lifetime agreement violation. A non-deterministic recording (a
// real-clock bench run) cannot be re-executed faithfully; it gets the
// standalone AuditTrace consistency audit instead and replayed is nil.
// A header describing several consensus groups fails in res.Err.
func ReplayTrace(recorded *workload.Trace, opts Options) (rep check.Report, replayed *workload.Trace, res Result) {
	if !recorded.Header.Deterministic {
		// RecordTrace refuses a multi-group header through
		// ScenarioFromTrace; a live one is only audited, so refuse it here.
		if err := refuseGroups("trace header", recorded.Header.Groups, recorded.Header.Placement); err != nil {
			return rep, nil, Result{Err: err}
		}
		return AuditTrace(recorded), nil, Result{}
	}
	replayed, res = RecordTrace(recorded.Header, opts)
	if res.Err != nil {
		rep = check.Report{Violations: []string{fmt.Sprintf("replay failed: %v", res.Err)}}
		return rep, nil, res
	}
	rep = AuditReplay(recorded, replayed)
	rep.Violations = append(rep.Violations, res.Violations...)
	return rep, replayed, res
}

// AuditReplay cross-checks a replayed trace against its recording:
// identical headers and event streams, and — both sides being
// deterministic executions of one header — outcome records equal
// field for field (latency included: virtual time is part of the
// determinism contract). The decided outcomes of both lifetimes are
// additionally fed through check.Replay, recorded as the journal view
// and replayed as the live view, extending uniform agreement across
// the record/replay boundary. Validity/Agreement mirror the findings;
// Termination is not assessable here and reports true.
func AuditReplay(recorded, replayed *workload.Trace) check.Report {
	rep := check.Report{Validity: true, Agreement: true, Termination: true}
	if recorded.Header != replayed.Header {
		rep.Validity = false
		rep.Violations = append(rep.Violations, "trace: replay ran a different header than recorded")
	}
	auditEvents(&rep, recorded)
	if len(recorded.Events) != len(replayed.Events) {
		rep.Validity = false
		rep.Violations = append(rep.Violations,
			fmt.Sprintf("trace: %d recorded events but %d replayed", len(recorded.Events), len(replayed.Events)))
	}
	n := len(recorded.Outcomes)
	if len(replayed.Outcomes) != n {
		rep.Agreement = false
		rep.Violations = append(rep.Violations,
			fmt.Sprintf("trace: %d recorded outcomes but %d replayed", n, len(replayed.Outcomes)))
		if len(replayed.Outcomes) < n {
			n = len(replayed.Outcomes)
		}
	}
	for i := 0; i < n; i++ {
		if recorded.Outcomes[i] != replayed.Outcomes[i] {
			rep.Agreement = false
			rep.Violations = append(rep.Violations,
				fmt.Sprintf("trace: event %d recorded %+v but replayed %+v",
					recorded.Outcomes[i].Seq, recorded.Outcomes[i], replayed.Outcomes[i]))
		}
	}
	crossReplay(&rep, recorded, replayed)
	return rep
}

// AuditTrace audits one trace standalone — the only audit available to
// a non-deterministic (real-clock) recording: the embedded spec must
// regenerate the recorded event stream byte-exactly, every event must
// carry exactly one outcome, and the decided outcomes must form a
// consistent decision journal under check.Replay (one value, one group,
// one class per instance).
func AuditTrace(tr *workload.Trace) check.Report {
	rep := check.Report{Validity: true, Agreement: true, Termination: true}
	auditEvents(&rep, tr)
	if len(tr.Outcomes) != len(tr.Events) {
		rep.Validity = false
		rep.Violations = append(rep.Violations,
			fmt.Sprintf("trace: %d events but %d outcomes", len(tr.Events), len(tr.Outcomes)))
	}
	for i, o := range tr.Outcomes {
		if o.Seq != uint64(i) {
			rep.Validity = false
			rep.Violations = append(rep.Violations,
				fmt.Sprintf("trace: outcome %d carries seq %d", i, o.Seq))
		}
	}
	crossReplay(&rep, tr, nil)
	return rep
}

// auditEvents checks a trace's event stream against its embedded spec:
// the spec is the trace's source of truth, so a recorded event the seed
// does not regenerate means the trace was not written by a correct
// recorder (or was mutated after the fact).
func auditEvents(rep *check.Report, tr *workload.Trace) {
	spec, err := workload.ParseSpec([]byte(tr.Header.Spec))
	if err != nil {
		rep.Validity = false
		rep.Violations = append(rep.Violations, fmt.Sprintf("trace: embedded spec: %v", err))
		return
	}
	gen := spec.Events()
	if len(gen) != len(tr.Events) {
		rep.Validity = false
		rep.Violations = append(rep.Violations,
			fmt.Sprintf("trace: spec generates %d events but %d are recorded", len(gen), len(tr.Events)))
		return
	}
	for i, e := range gen {
		if rec := e.Record(); rec != tr.Events[i] {
			rep.Validity = false
			rep.Violations = append(rep.Violations,
				fmt.Sprintf("trace: event %d recorded as %+v but the seed generates %+v", i, tr.Events[i], rec))
		}
	}
}

// crossReplay runs check.Replay with recorded decided outcomes as the
// journal view and replayed decided outcomes (when present) as the live
// view, folding its findings into rep.
func crossReplay(rep *check.Report, recorded, replayed *workload.Trace) {
	var records []wire.DecisionRecord
	for _, o := range recorded.Outcomes {
		if o.Status != wire.TraceDecided {
			continue
		}
		records = append(records, wire.DecisionRecord{
			Instance: o.Instance, Value: o.Value, Round: o.Round,
			Batch: o.Batch, Group: o.Group, Class: o.Class,
		})
	}
	var live map[uint64]model.Value
	if replayed != nil {
		live = make(map[uint64]model.Value)
		for _, o := range replayed.Outcomes {
			if o.Status == wire.TraceDecided {
				live[o.Instance] = o.Value
			}
		}
	}
	cross := check.Replay(records, nil, live)
	if !cross.Validity {
		rep.Validity = false
	}
	if !cross.Agreement {
		rep.Agreement = false
	}
	rep.Violations = append(rep.Violations, cross.Violations...)
}
