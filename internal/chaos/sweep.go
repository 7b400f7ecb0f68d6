package chaos

import (
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"indulgence/internal/adapt"
	"indulgence/internal/check"
	"indulgence/internal/core"
	"indulgence/internal/journal"
	"indulgence/internal/metrics"
	"indulgence/internal/model"
	"indulgence/internal/runtime"
	"indulgence/internal/service"
	"indulgence/internal/wire"
	"indulgence/internal/workload"
)

// Options tunes a chaos run.
type Options struct {
	// JournalDir is where the run's decision journal lives ("" = a
	// private temp directory, removed after the run). A kept journal is
	// the post-mortem artifact of a failing seed.
	JournalDir string
}

// Result is the audited outcome of one scenario run.
type Result struct {
	// Scenario is the spec that ran — print Scenario.JSON() to replay.
	Scenario Scenario
	// Decided, Shed and Failed partition the scenario's proposals:
	// resolved with a decision, refused by admission control
	// (adapt.ErrOverload), or failed (instance timeout or abort).
	Decided, Shed, Failed int
	// Violations collects every audit finding: live check.Instance
	// violations from the service, check.Replay findings over the
	// journal, and a wedge marker if the run had to be aborted. The
	// paper says this stays empty; a non-empty slice is a bug.
	Violations []string
	// Wedged reports that the run was cut short: the virtual schedule
	// overran its cap or the wall watchdog fired.
	Wedged bool
	// Log is the canonical per-proposal decision log. Two runs of the
	// same spec must produce identical logs — the reproducibility
	// contract the chaos tests enforce.
	Log string
	// Metrics is the run's final registry snapshot (Prometheus text),
	// taken after the service quiesced. The registry observes only
	// virtual-clock durations and schedule-driven counters, so two runs
	// of the same spec must produce byte-identical snapshots — the same
	// contract Log carries, extended to the introspection plane. The one
	// exception is stripped before the snapshot lands here: the transport
	// frame counters (see stripFrameSeries).
	Metrics string
	// Outcomes holds one trace outcome record per load event, by event
	// sequence number. Together with a workload scenario's regenerable
	// event stream they form the run's trace (see RecordTrace).
	Outcomes []wire.TraceOutcomeRecord
	// Virtual and Wall are the simulated and wall-clock durations.
	Virtual, Wall time.Duration
	// Err is a harness setup error (invalid spec, journal failure) —
	// distinct from consensus misbehaviour.
	Err error
}

// OK reports whether the run found nothing wrong.
func (r Result) OK() bool {
	return r.Err == nil && !r.Wedged && len(r.Violations) == 0
}

// crashPlan tracks which processes are down and applies crashes to
// every cluster the service has started. Instances started while a
// process is down begin with it crashed; a restart only readmits the
// process to instances started afterwards (per-instance crash-stop).
type crashPlan struct {
	mu       sync.Mutex
	down     map[model.ProcessID]bool
	clusters []*runtime.Cluster
}

func (cp *crashPlan) crash(p model.ProcessID) {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	cp.down[p] = true
	for _, cl := range cp.clusters {
		_ = cl.Crash(p)
	}
}

func (cp *crashPlan) restart(p model.ProcessID) {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	cp.down[p] = false
}

// onInstance is the service hook: crash the new cluster's dead
// processes before its rounds start, and retain it for later crashes.
func (cp *crashPlan) onInstance(_ uint64, cl *runtime.Cluster) {
	cp.mu.Lock()
	defer cp.mu.Unlock()
	cp.clusters = append(cp.clusters, cl)
	for p, d := range cp.down {
		if d {
			_ = cl.Crash(p)
		}
	}
}

// Run executes one scenario on a fresh virtual clock and audits it.
func Run(sc Scenario, opts Options) Result {
	if err := sc.Validate(); err != nil {
		return Result{Scenario: sc, Err: err}
	}
	return run(sc, sc.Events(), opts)
}

// run executes the valid scenario sc under the given load — sc.Events()
// for every caller but the test that pins a wave scenario against its
// hand-built event list.
func run(sc Scenario, events []workload.Event, opts Options) Result {
	res := Result{Scenario: sc}
	factory, policy, err := core.ByName(sc.Algorithm)
	if err != nil {
		res.Err = err
		return res
	}
	dir := opts.JournalDir
	if dir == "" {
		tmp, err := os.MkdirTemp("", "chaos-journal-*")
		if err != nil {
			res.Err = err
			return res
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	}

	//indulgence:wallclock Result.Wall reports real elapsed run time by definition
	wallStart := time.Now()
	fab, err := NewFabric(sc)
	if err != nil {
		res.Err = err
		return res
	}
	defer fab.Hub.Close()
	clk := fab.Clock
	virtStart := clk.Now()

	cp := &crashPlan{down: make(map[model.ProcessID]bool)}
	for _, c := range sc.Crashes {
		clk.AfterFuncTagged(c.At, 0, func() { cp.crash(c.P) })
		if c.Restart > 0 {
			clk.AfterFuncTagged(c.Restart, 0, func() { cp.restart(c.P) })
		}
	}

	reg := metrics.NewRegistry()
	cfg := service.Config{
		N: sc.N, T: sc.T,
		Factory:         factory,
		WaitPolicy:      policy,
		BaseTimeout:     sc.BaseTimeout,
		MaxBatch:        sc.MaxBatch,
		Linger:          sc.Linger,
		MaxInflight:     sc.MaxInflight,
		InstanceTimeout: sc.InstanceTimeout,
		OnInstance:      cp.onInstance,
		Clock:           clk,
		Metrics:         reg,
	}
	if sc.Adaptive {
		cfg.Adaptive = &adapt.Config{Classes: sc.Classes}
	}
	// The service under test, over one journal. NoSync: the journal is an
	// audit trail here, not a durability promise, and fsync stalls would
	// leak wall time into the virtual schedule.
	jn, err := journal.Open(dir, journal.Options{NoSync: true, Metrics: reg})
	if err != nil {
		res.Err = err
		return res
	}
	defer jn.Close()
	cfg.Journal = jn
	svc, err := service.New(cfg, fab.Endpoints)
	if err != nil {
		res.Err = err
		return res
	}

	// Every instance carries a virtual deadline, so a healthy run
	// terminates on its own; the virtual cap only catches bugs.
	virtualCap := sc.Horizon + 2*sc.InstanceTimeout + time.Second
	if len(events) > 0 {
		virtualCap += events[len(events)-1].At
	}
	var errs []error
	res.Outcomes, errs, res.Wedged = fab.Submit(svc, events, virtualCap)
	res.Virtual = clk.Now().Sub(virtStart)
	//indulgence:wallclock Result.Wall reports real elapsed run time by definition
	res.Wall = time.Since(wallStart)
	if res.Wedged {
		res.Violations = append(res.Violations,
			fmt.Sprintf("wedged after %v virtual / %v wall", res.Virtual, res.Wall))
	} else {
		svc.Close()
	}

	// The final registry snapshot, at quiescence: every instrument fed
	// by the run has settled, so this render is the run's deterministic
	// introspection record — minus the frame counters, whose inbound
	// total depends on how frames racing a retirement interleave.
	res.Metrics = stripFrameSeries(reg.Text())

	// Audit 1: the service's own live check.Instance findings.
	res.Violations = append(res.Violations, svc.Snapshot().Violations...)

	// Audit 2: replay the journal against the futures' view.
	hist, err := journal.ReadHistory(dir)
	if err != nil {
		res.Err = fmt.Errorf("chaos: replay journal: %w", err)
		return res
	}
	// The canonical decision log, in load order (not resolution order).
	// Wave scenarios keep the pre-workload line format — legacy specs
	// must keep producing byte-identical logs. Latency rides the outcome
	// record but stays out of the log: it is a measurement, not a
	// decision.
	live := make(map[uint64]model.Value)
	var b strings.Builder
	for i, o := range res.Outcomes {
		if sc.Workload != nil {
			fmt.Fprintf(&b, "e%04d c%d ", i, events[i].Class)
		} else {
			fmt.Fprintf(&b, "p%03d ", i)
		}
		switch o.Status {
		case wire.TraceShed:
			res.Shed++
			b.WriteString("shed\n")
		case wire.TraceFailed:
			res.Failed++
			fmt.Fprintf(&b, "failed: %v\n", errs[i])
		default:
			res.Decided++
			live[o.Instance] = o.Value
			fmt.Fprintf(&b, "v=%d -> inst=%d val=%d round=%d batch=%d",
				events[i].Value, o.Instance, o.Value, o.Round, o.Batch)
			if sc.Workload != nil {
				fmt.Fprintf(&b, " class=%d", o.Class)
			}
			b.WriteByte('\n')
		}
	}
	res.Log = b.String()
	rep := check.Replay(hist.Records, hist.Starts, live)
	res.Violations = append(res.Violations, rep.Violations...)
	return res
}

// SweepStats aggregates a batch of seeded runs.
type SweepStats struct {
	// Runs counts executed scenarios; Failures holds the ones that
	// found something (violations, wedge, or harness error).
	Runs     int
	Failures []Result
	// Decided, Shed and Failed total the proposal outcomes.
	Decided, Shed, Failed int
	// Virtual and Wall total the simulated and wall-clock durations —
	// the virtual/wall ratio is the harness's time-compression factor.
	Virtual, Wall time.Duration
}

// WorkloadScenario replaces sc's wave load with a generated workload:
// the spec's event cap is clamped to the scenario's intake bound (load
// is submitted on the clock driver and must never block), wave fields
// are cleared, and a classed workload arms per-class admission on the
// adaptive plane.
func WorkloadScenario(sc Scenario, spec *workload.Spec) Scenario {
	w := *spec
	bound := sc.MaxBatch * sc.MaxInflight
	if w.MaxEvents == 0 || w.MaxEvents > bound {
		w.MaxEvents = bound
	}
	sc.Workload = &w
	sc.Proposals, sc.Waves, sc.WaveGap = 0, 0, 0
	if c := w.Classes(); c > 1 {
		sc.Adaptive = true
		sc.Classes = c
	}
	return sc
}

// Sweep generates and runs count scenarios from consecutive seeds
// starting at baseSeed. A non-nil spec replaces every scenario's wave
// load with that workload, clamped per scenario (WorkloadScenario): the
// same seeded partitions, gray links and crashes under classed
// multi-cohort arrivals. onRun, when non-nil, observes every result as
// it completes (the CLI uses it for progress and failure printing).
func Sweep(baseSeed int64, count int, spec *workload.Spec, opts Options, onRun func(Result)) SweepStats {
	var st SweepStats
	for i := 0; i < count; i++ {
		sc := Generate(baseSeed + int64(i))
		if spec != nil {
			sc = WorkloadScenario(sc, spec)
		}
		r := Run(sc, opts)
		st.Runs++
		st.Decided += r.Decided
		st.Shed += r.Shed
		st.Failed += r.Failed
		st.Virtual += r.Virtual
		st.Wall += r.Wall
		// Generated scenarios are live by construction, so a failed
		// proposal (an instance missing its generous deadline) is a
		// finding even when no safety violation was recorded.
		if !r.OK() || r.Failed > 0 {
			st.Failures = append(st.Failures, r)
		}
		if onRun != nil {
			onRun(r)
		}
	}
	sort.SliceStable(st.Failures, func(a, b int) bool {
		return st.Failures[a].Scenario.Seed < st.Failures[b].Scenario.Seed
	})
	return st
}

// stripFrameSeries drops the transport frame-counter families from a
// rendered snapshot. Sends are seed-stable, but a frame — typically a
// relayed DECIDE — can reach a stream its receiver retires in the same
// virtual instant, and whether the mux counts it first is goroutine
// interleaving: frames_in moved by 1–7 between two -race runs of the
// parity seeds while frames_out held. Everything else in the snapshot
// stays byte-identical run over run.
func stripFrameSeries(text string) string {
	var b strings.Builder
	for _, line := range strings.SplitAfter(text, "\n") {
		if strings.Contains(line, "indulgence_frames_") {
			continue
		}
		b.WriteString(line)
	}
	return b.String()
}
