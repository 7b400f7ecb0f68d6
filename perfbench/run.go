package main

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"

	"indulgence"
)

// env is what one invocation hands every workload run.
type env struct {
	seed    int64
	seconds float64
	// dir is the scratch directory journals live under; it is inside the
	// checkout and removed on exit.
	dir string
	// spans collects the traced passes' spans for -trace-out.
	spans []span
}

// runResult is one workload run's outcome.
type runResult struct {
	workload  string
	attempted int
	failed    int
	// findings are output-audit failures; any makes the run incorrect.
	findings []string
	metrics  map[string]sample
}

func newResult(workload string) *runResult {
	return &runResult{workload: workload, metrics: make(map[string]sample)}
}

// set records a metric; samples is the number of observations behind v.
func (r *runResult) set(name string, v float64, samples int) {
	r.metrics[name] = sample{Value: v, Unit: unitOf(name), Samples: samples}
}

func unitOf(name string) string {
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if d.Name == name {
				return d.Unit
			}
		}
	}
	panic("perfbench: metric " + name + " is not declared in spec.go")
}

// runWorkload runs one pass of one workload: the untraced pass yields
// the end-to-end metrics, the traced pass the per-layer ones.
func runWorkload(def *workloadDef, e *env, traced bool) (*runResult, error) {
	switch {
	case def.live == nil:
		return runExplore(e, traced)
	case traced:
		return runLiveTraced(def, e)
	default:
		return runLive(def, e)
	}
}

// journalSeedFor pre-fills the journal a durable workload recovers from
// ("" for the others); the caller removes the directory.
func journalSeedFor(spec *liveSpec, e *env) (string, error) {
	if !spec.durable {
		return "", nil
	}
	dir, err := os.MkdirTemp(e.dir, "prefill-")
	if err != nil {
		return "", err
	}
	return dir, prefillJournal(dir)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// latenciesMs returns the sorted due-to-resolved latencies of the
// proposals that did not fail.
func latenciesMs(recs []record) []float64 {
	out := make([]float64, 0, len(recs))
	for i := range recs {
		if !recs[i].failed {
			out = append(out, ms(recs[i].done-recs[i].due))
		}
	}
	sort.Float64s(out)
	return out
}

// setLatency reports the end-to-end latency percentiles: per window of
// the measured interval (by due time), then the median over windows.
func setLatency(res *runResult, spec *liveSpec, iv *interval) {
	var at []time.Duration
	var lat []float64
	for i := range iv.recs {
		if r := &iv.recs[i]; !r.failed {
			at = append(at, r.due-iv.start)
			lat = append(lat, ms(r.done-r.due))
		}
	}
	for name, q := range map[string]float64{"latency_p50_ms": 0.50, "latency_p95_ms": 0.95} {
		v, n := windowedPercentile(at, lat, iv.length, spec.window(iv.length), q)
		res.set(name, v, n)
	}
}

func countFailed(recs []record) int {
	n := 0
	for i := range recs {
		if recs[i].failed {
			n++
		}
	}
	return n
}

// decisionRates returns the decided-instances-per-second rate of every
// complete one-second window of the measured interval.
func decisionRates(iv *interval, decs []decision) []float64 {
	at := make([]time.Duration, len(decs))
	for i, d := range decs {
		at[i] = d.first - iv.start
	}
	return windowRates(at, iv.length, time.Second)
}

// runLive is the untraced pass of a live workload. It sets the workload
// up setupRepeats times (setup_s is the median) and measures on the
// last stack.
func runLive(def *workloadDef, e *env) (res *runResult, err error) {
	spec := def.live
	res = newResult(def.name)
	journalSeed, err := journalSeedFor(spec, e)
	defer os.RemoveAll(journalSeed)
	if err != nil {
		return nil, err
	}
	var (
		st     *stack
		setups []float64
	)
	for i := 0; i < setupRepeats; i++ {
		begin := time.Now()
		if st, err = setup(spec, e, nil, journalSeed); err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		setups = append(setups, time.Since(begin).Seconds())
		if i < setupRepeats-1 {
			if err := st.close(); err != nil {
				return nil, fmt.Errorf("tear-down %d: %w", i+1, err)
			}
		}
	}
	defer func() { err = errors.Join(err, st.close()) }()

	iv := st.measure(time.Duration(e.seconds*float64(time.Second)), false)
	res.attempted, res.failed = len(iv.recs), countFailed(iv.recs)
	res.findings = st.audit(iv.recs)
	decs := decisions(iv.recs, len(st.members))
	if len(decs) == 0 {
		return nil, fmt.Errorf("no instance decided in the measured interval (first error: %v)", st.firstErr)
	}
	warnLate(def.name, iv)
	n := float64(len(decs))
	rates := decisionRates(iv, decs)
	res.metrics["setup_s"] = summarize(setups, "s")
	res.metrics["decisions_per_s"] = summarize(rates, "1/s")
	setLatency(res, spec, iv)
	res.set("allocs_per_decision", float64(iv.after.mem.Mallocs-iv.before.mem.Mallocs)/n, len(decs))
	res.set("alloc_kb_per_decision", float64(iv.after.mem.TotalAlloc-iv.before.mem.TotalAlloc)/1024/n, len(decs))

	// Retained heap: load stopped, every future resolved, the generator's
	// records dropped, service still open. A durable run keeps its
	// acknowledged decisions (32 B each) for the journal audit below.
	iv.recs = nil
	if !spec.durable {
		decs = nil
	}
	res.set("retained_heap_mb", retainedHeapMB(), 1)

	if spec.durable {
		dir := st.journalDir
		if err := st.stop(); err != nil {
			return nil, err
		}
		res.findings = append(res.findings, auditJournal(dir, decs)...)
	}
	return res, nil
}

// warnLate says so on standard error when an open-loop interval's
// scheduler ran late: its latencies then include the generator's (or a
// stalled box's) delay. The run still reports — latency is timed from
// the due time either way, and on a shared box a run lost to one stall
// costs more than a run flagged for it.
func warnLate(workload string, iv *interval) {
	if len(iv.late) == 0 {
		return
	}
	if p95 := latePercentile(iv.late, 0.95); p95 > lateLimit {
		fmt.Fprintf(os.Stderr, "perfbench: %s: warning: open-loop scheduler fired %.2f ms late at p95 (limit %v)\n", workload, ms(p95), lateLimit)
	}
}

func latePercentile(late []time.Duration, q float64) time.Duration {
	xs := make([]float64, len(late))
	for i, d := range late {
		xs[i] = float64(d)
	}
	sort.Float64s(xs)
	return time.Duration(percentile(xs, q))
}

// runLiveTraced is the traced pass of a live workload: the benchmark's
// own Transport and Factory decorators in place, spans kept, and the
// ladder rows of the layers this workload is the home of. On a closed
// loop an untraced reference interval runs first, so the tracing
// overhead is a measured difference.
func runLiveTraced(def *workloadDef, e *env) (res *runResult, err error) {
	spec := def.live
	res = newResult(def.name)
	journalSeed, err := journalSeedFor(spec, e)
	defer os.RemoveAll(journalSeed)
	if err != nil {
		return nil, err
	}
	length := time.Duration(e.seconds * float64(time.Second))
	refRate := 0.0
	if spec.rate == 0 {
		ref, err := setup(spec, e, nil, journalSeed)
		if err != nil {
			return nil, fmt.Errorf("reference set-up: %w", err)
		}
		iv := ref.measure(length*2/5, false)
		refDecs := decisions(iv.recs, len(ref.members))
		refRate = median(decisionRates(iv, refDecs))
		setProcessRows(res, iv.before, iv.after, len(refDecs))
		if err := ref.close(); err != nil {
			return nil, err
		}
		length = length * 3 / 5
	}

	t := newTracer(def.name)
	st, err := setup(spec, e, t, journalSeed)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer func() { err = errors.Join(err, st.close()) }()
	iv := st.measure(length, true)
	res.attempted, res.failed = len(iv.recs), countFailed(iv.recs)
	res.findings = st.audit(iv.recs)
	decs := decisions(iv.recs, len(st.members))
	if len(decs) == 0 {
		return nil, fmt.Errorf("no instance decided in the traced interval (first error: %v)", st.firstErr)
	}
	n := float64(len(decs))
	if refRate == 0 {
		// No untraced reference on an open loop: these readings include
		// the decorators' own work.
		setProcessRows(res, iv.before, iv.after, len(decs))
	}

	// Spans of the generator's own boundary: one root per proposal, due
	// to resolved, with the Propose call and the Future wait as children.
	for i := range iv.recs {
		r := &iv.recs[i]
		if r.failed || !sampled(r.instance) {
			continue
		}
		root := t.add("proposal", 0, r.instance, r.due, r.done)
		t.add("service.propose", root, r.instance, r.called, r.proposed)
		t.add("service.wait", root, r.instance, r.proposed, r.done)
	}
	spans := t.snapshot()
	self := selfTimes(spans)
	var rootSelf, roots float64
	for _, s := range spans {
		if s.Name == "proposal" {
			rootSelf += float64(self[s.ID])
			roots++
		}
	}
	e.spans = append(e.spans, spans...)
	res.set("trace.spans", float64(len(spans)), 1)
	res.set("loadgen.self_us_mean", rootSelf/max(roots, 1)/1e3, int(roots))
	if len(iv.late) > 0 {
		res.set("loadgen.late_ms_p95", ms(latePercentile(iv.late, 0.95)), len(iv.late))
	}
	if refRate > 0 {
		tracedRate := median(decisionRates(iv, decs))
		res.set("trace.overhead_pct", 100*(1-tracedRate/refRate), 1)
	}

	frames := float64(t.frames.Load())
	res.set("wire.bytes_per_frame", float64(t.bytes.Load())/max(frames, 1), int(frames))
	res.set("transport.frames_per_decision", frames/n, len(decs))
	res.set("transport.bytes_per_decision", float64(t.bytes.Load())/n, len(decs))
	res.set("transport.send_busy_us_per_decision", float64(t.sendBusy.Load())/1e3/n, len(decs))
	if !spec.adaptive { // the selector's ladder builds its own factories
		res.set("core.step_us_per_decision", float64(t.stepBusy.Load())/1e3/n, len(decs))
		res.set("core.rounds_executed_per_decision", float64(t.steps.Load())/n, len(decs))
	}

	var rounds, batch float64
	for _, d := range decs {
		rounds += float64(d.round)
		batch += float64(d.batch)
	}
	res.set("runtime.rounds_per_decision", rounds/n, len(decs))
	res.set("service.batch_mean", batch/n, len(decs))
	res.set("runtime.goroutines_steady", median(iv.goroutines), len(iv.goroutines))

	lat := latenciesMs(iv.recs)
	calls := make([]float64, 0, len(iv.recs))
	var latSum float64
	for i := range iv.recs {
		calls = append(calls, us(iv.recs[i].proposed-iv.recs[i].called))
	}
	sort.Float64s(calls)
	for _, l := range lat {
		latSum += l
	}
	res.set("service.propose_call_us_p50", percentile(calls, 0.50), len(calls))
	if tailSupported(len(lat), 0.99) {
		res.set("service.latency_p99_ms", percentile(lat, 0.99), len(lat))
	}
	if tailSupported(len(lat), 0.999) {
		res.set("service.latency_p999_ms", percentile(lat, 0.999), len(lat))
	}
	res.set("service.failed_share", float64(res.failed)/float64(res.attempted), res.attempted)

	d := statsDelta(iv.statsBefore, iv.statsAfter)
	res.set("service.decision_ms_mean", d.decisionMs, d.instances)
	res.set("service.queue_wait_ms_mean", latSum/max(float64(len(lat)), 1)-d.decisionMs, len(lat))
	res.set("service.batch_fill_pct", d.batchFill, d.instances)
	res.set("service.instance_failures", float64(d.instanceFailures), 1)
	res.set("runtime.round_ms_p50", d.roundMsP50, d.instances)
	if spec.peers {
		res.set("service.joined_share", float64(d.joined)/max(float64(d.instances), 1), d.instances)
	}
	if spec.adaptive {
		fast := algorithmName(indulgence.NewAfPlus2())
		res.set("adapt.fast_share", float64(d.algorithms[fast])/max(float64(d.instances), 1), d.instances)
		res.set("adapt.adjustments", float64(d.adjustments), 1)
		res.set("adapt.transitions", float64(d.transitions), 1)
		res.set("adapt.shed_share", float64(d.overloads)/float64(res.attempted), res.attempted)
	}
	if spec.durable {
		jb, ja := iv.journalBefore, iv.journalAfter
		res.set("journal.fsyncs_per_decision", float64(ja.Syncs-jb.Syncs)/n, len(decs))
		res.set("journal.fsync_ms_p50", ms(ja.SyncLatency.P50), ja.SyncLatency.Count)
		res.set("journal.fsync_ms_p99", ms(ja.SyncLatency.P99), ja.SyncLatency.Count)
		res.set("journal.bytes_per_decision", float64(iv.journalBytes)/n, len(decs))
		res.set("journal.recover_ms_per_100k", ms(st.recovery)/(prefillRecords/100_000.0), 1)
	}

	// The ladder runs after the stack is down so its rows time the layer
	// alone.
	if err := st.close(); err != nil {
		return nil, err
	}
	if err := runLadder(def.name, e, res); err != nil {
		return nil, fmt.Errorf("ladder: %w", err)
	}
	return res, nil
}

// delta is what the services' own counters say happened between two
// snapshots, summed over members.
type delta struct {
	instances, instanceFailures, joined int
	overloads, adjustments, transitions int
	algorithms                          map[string]int
	decisionMs, batchFill, roundMsP50   float64
}

// statsDelta folds per-member snapshots taken before and after an
// interval. Means over the interval are recovered from the lifetime
// means and counts on either side; the round-latency median is the
// lifetime one (a percentile cannot be differenced), averaged over
// members.
func statsDelta(before, after []indulgence.ServiceStats) delta {
	d := delta{algorithms: make(map[string]int)}
	var decN, decSum, fillN, fillSum float64
	for i := range after {
		b, a := before[i], after[i]
		d.instances += a.Instances - b.Instances
		d.instanceFailures += a.InstanceFailures - b.InstanceFailures
		d.joined += a.JoinedInstances - b.JoinedInstances
		d.overloads += a.Overloads - b.Overloads
		d.adjustments += a.Control.Adjustments - b.Control.Adjustments
		d.transitions += a.Control.Transitions - b.Control.Transitions
		for name, c := range a.Algorithms {
			d.algorithms[name] += c - b.Algorithms[name]
		}
		decN += float64(a.DecisionLatency.Count - b.DecisionLatency.Count)
		decSum += ms(a.DecisionLatency.Mean)*float64(a.DecisionLatency.Count) - ms(b.DecisionLatency.Mean)*float64(b.DecisionLatency.Count)
		fillN += float64(a.BatchFill.Count - b.BatchFill.Count)
		fillSum += a.BatchFill.Mean*float64(a.BatchFill.Count) - b.BatchFill.Mean*float64(b.BatchFill.Count)
		d.roundMsP50 += ms(a.RoundLatency.P50) / float64(len(after))
	}
	d.decisionMs = decSum / max(decN, 1)
	d.batchFill = fillSum / max(fillN, 1)
	return d
}

// runExplore is the explore workload: whole explorations of the fixed
// family, repeated for the measured interval. A "decision" is one
// explored serial run; a latency sample is one exploration.
func runExplore(e *env, traced bool) (*runResult, error) {
	res := newResult("explore")
	explore := func(n int) (*indulgence.ExploreResult, error) {
		props := make([]indulgence.Value, n)
		for i := range props {
			// Distinct proposals derived from the seed; the run family's
			// size does not depend on them.
			props[i] = indulgence.Value(e.seed + int64(i) + 1)
		}
		return indulgence.Explore(indulgence.ExploreConfig{
			N: n, T: exploreT, Synchrony: indulgence.ES, Factory: algorithm(),
			Proposals: props, Mode: indulgence.AllSubsets,
		})
	}
	var setups []float64
	repeats := setupRepeats
	if traced {
		repeats = 1
	}
	for i := 0; i < repeats; i++ {
		begin := time.Now()
		if _, err := explore(exploreN - 1); err != nil {
			return nil, fmt.Errorf("warm-up exploration: %w", err)
		}
		setups = append(setups, time.Since(begin).Seconds())
	}

	var (
		callMs, rates []float64
		runs          int
		last          *indulgence.ExploreResult
	)
	before := readUsage()
	for time.Since(before.at).Seconds() < e.seconds {
		begin := time.Now()
		out, err := explore(exploreN)
		if err != nil {
			return nil, err
		}
		took := time.Since(begin)
		callMs = append(callMs, ms(took))
		rates = append(rates, float64(out.Runs)/took.Seconds())
		runs += out.Runs
		last = out
		res.attempted++
		switch {
		case out.Runs != exploreRuns:
			res.findings = append(res.findings, fmt.Sprintf("explore: %d runs, want exactly %d", out.Runs, exploreRuns))
		case out.WorstRound != exploreWorstRound:
			res.findings = append(res.findings, fmt.Sprintf("explore: worst round %d, want t+2 = %d", out.WorstRound, exploreWorstRound))
		case out.PropertyViolation != nil:
			res.findings = append(res.findings, fmt.Sprintf("explore: %v", out.PropertyViolation))
		}
	}
	after := readUsage()
	n := float64(runs)

	if traced {
		res.set("lowerbound.runs", float64(last.Runs), 1)
		res.set("lowerbound.worst_round", float64(last.WorstRound), 1)
		setProcessRows(res, before, after, runs)
		return res, runLadder("explore", e, res)
	}
	sort.Float64s(callMs)
	res.metrics["setup_s"] = summarize(setups, "s")
	res.metrics["decisions_per_s"] = summarize(rates, "1/s")
	res.set("latency_p50_ms", percentile(callMs, 0.50), len(callMs))
	res.set("latency_p95_ms", supportedPercentile(callMs, 0.95), len(callMs))
	res.set("allocs_per_decision", float64(after.mem.Mallocs-before.mem.Mallocs)/n, runs)
	res.set("alloc_kb_per_decision", float64(after.mem.TotalAlloc-before.mem.TotalAlloc)/1024/n, runs)
	res.set("retained_heap_mb", retainedHeapMB(), 1)
	return res, nil
}

// retainedHeapMB is the live heap after two collections (the second
// also empties the sync.Pool victim caches).
func retainedHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / 1e6
}

// setProcessRows records what the process as a whole consumed between
// two readings, per decided instance.
func setProcessRows(res *runResult, before, after usage, decided int) {
	res.set("process.cpu_us_per_decision", float64(after.cpuNs-before.cpuNs)/1e3/max(float64(decided), 1), decided)
	res.set("gc.cycles", float64(after.mem.NumGC-before.mem.NumGC), 1)
	res.set("gc.pause_ms_total", float64(after.mem.PauseTotalNs-before.mem.PauseTotalNs)/1e6, 1)
}

// scratchDir creates the invocation's scratch directory under parent.
func scratchDir(parent string) (string, error) {
	if err := os.MkdirAll(parent, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(parent, "perfbench-")
}
