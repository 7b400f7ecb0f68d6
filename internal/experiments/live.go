package experiments

import (
	"fmt"
	goruntime "runtime"
	"strings"
	"time"

	"indulgence/internal/adapt"
	"indulgence/internal/chaos"
	"indulgence/internal/core"
	"indulgence/internal/model"
	"indulgence/internal/runtime"
	"indulgence/internal/service"
	"indulgence/internal/stats"
	"indulgence/internal/workload"
)

// liveScenario describes one live execution, served through the
// consensus service layer.
type liveScenario struct {
	name string
	n, t int
	// algo is the algorithm's core.ByName name; the receive discipline
	// comes paired with the factory from there.
	algo        string
	baseTimeout time.Duration
	// adaptive, when true, attaches the control plane with per-instance
	// algorithm selection.
	adaptive bool
	// disturb, if non-nil, runs on the instance's OnInstance hook —
	// after the cluster is assembled, before its rounds start — with the
	// scenario's fabric (its hub for delay injection, its clock for
	// scheduling the heal) and cluster (crash injection); it returns the
	// number of crashed processes.
	disturb func(fab *chaos.Fabric, cl *runtime.Cluster) int
	// wantRound, if non-zero, is the exact global decision round
	// expected of the instance.
	wantRound model.Round
	// wantAlg, if non-empty, is the algorithm every decided instance
	// must have run (adaptive scenarios).
	wantAlg string
}

// liveRow is one scenario's rendered outcome, plus its line in the
// canonical decision log.
type liveRow struct {
	cells []any
	log   string
	fails []string
}

// e9Scenarios is the fixed scenario set of E9. Timings are virtual:
// the injected 80ms delay and 200ms heal cost two discrete events, not
// wall time.
func e9Scenarios() []liveScenario {
	return []liveScenario{
		{
			name: "quiet network, A_t+2", n: 5, t: 2,
			algo:        "atplus2",
			baseTimeout: 50 * time.Millisecond,
			wantRound:   4, // t+2
		},
		{
			name: "quiet network, A_t+2+ff", n: 5, t: 2,
			algo:        "atplus2ff",
			baseTimeout: 50 * time.Millisecond,
			wantRound:   2,
		},
		{
			name: "quiet network, A_dS (wait-quorum)", n: 5, t: 2,
			algo:        "diamonds",
			baseTimeout: 50 * time.Millisecond,
		},
		{
			name: "quiet network, adaptive selection", n: 4, t: 1,
			algo:        "atplus2",
			baseTimeout: 50 * time.Millisecond,
			adaptive:    true,
			wantAlg:     core.AfPlus2Name, // synchronous + trusted => the fast rung
		},
		{
			name: "async period: p1 delayed 80ms, A_t+2", n: 5, t: 2,
			algo:        "atplus2",
			baseTimeout: 10 * time.Millisecond,
			disturb: func(fab *chaos.Fabric, _ *runtime.Cluster) int {
				fab.Hub.DelayProcess(1, 80*time.Millisecond)
				fab.Clock.AfterFunc(200*time.Millisecond, fab.Hub.Heal)
				return 0
			},
		},
		{
			name: "crash p2 at start, A_t+2", n: 5, t: 2,
			algo:        "atplus2",
			baseTimeout: 10 * time.Millisecond,
			disturb: func(_ *chaos.Fabric, cl *runtime.Cluster) int {
				_ = cl.Crash(2)
				return 1
			},
		},
		{
			name: "crash p1+p2, A_f+2", n: 7, t: 2,
			algo:        "afplus2",
			baseTimeout: 10 * time.Millisecond,
			disturb: func(_ *chaos.Fabric, cl *runtime.Cluster) int {
				_ = cl.Crash(1)
				_ = cl.Crash(2)
				return 2
			},
		},
	}
}

// E9LiveRuntime validates the engineering claim behind indulgence on the
// consensus service itself — the same layer bench-service loads — over
// the in-memory transport: each scenario proposes n distinct values,
// which the service batches into one consensus instance, so the quiet
// network decides at exactly t+2 rounds, and injected delay periods
// (false suspicions) and crash injections slow decisions down but never
// endanger validity or agreement (the service's own check.Instance audit
// must stay silent). Every scenario runs on its own virtual clock behind
// the chaos fault fabric, so the whole experiment — 80ms delay windows,
// 200ms heal schedules and all — costs milliseconds of wall time and is
// reproducible from its seed (see E9DecisionLog).
func E9LiveRuntime() (*Outcome, error) {
	o := &Outcome{
		ID:    "E9",
		Title: "Live service: indulgence under virtual time (in-memory transport, chaos fabric)",
	}
	scenarios := e9Scenarios()
	rows := make([]liveRow, len(scenarios))
	for i, sc := range scenarios {
		rows[i] = runLiveScenario(sc, 1)
	}

	table := stats.NewTable("Live service outcomes (one instance per scenario, virtual time)",
		"scenario", "n", "t", "crashes", "agreed value", "round", "virtual decision latency")
	for i, row := range rows {
		table.AddRowf(row.cells...)
		for _, f := range rows[i].fails {
			o.expect(false, "%s", f)
		}
	}
	o.Tables = append(o.Tables, table)
	o.Notes = append(o.Notes,
		"delay injection causes false suspicions and extra rounds but never endangers agreement — the",
		"operational meaning of indulgence; with a quiet network A_t+2 hits its t+2 fast path exactly,",
		"and the adaptive control plane keeps the non-indulgent A_f+2 selected while the cluster stays",
		"synchronous and trusted. All scenarios ride the service layer (batching, muxes, futures) on",
		"virtual clocks: latencies are simulated time, and the same seed replays the same schedule.")
	return o, nil
}

// E9DecisionLog runs every E9 scenario on virtual clocks and returns the
// canonical decision log plus any failures. The log is the experiment's
// reproducibility witness: for one seed, two runs must produce identical
// bytes, because every cross-process frame is a tagged clock event whose
// ordering is a pure function of (seed, frame contents) and each
// scenario runs on one scheduler thread.
func E9DecisionLog(seed int64) (string, []string) {
	var b strings.Builder
	var fails []string
	for _, sc := range e9Scenarios() {
		row := runLiveScenario(sc, seed)
		b.WriteString(row.log)
		fails = append(fails, row.fails...)
	}
	return b.String(), fails
}

// runLiveScenario drives one scenario through a dedicated one-group
// runtime on a quiet chaos fabric — no faults, but every cross-process
// frame a seed-tagged clock event, which is what makes the schedule
// replayable: the chaos harness's submitter proposes the n distinct
// values at the first instant, they batch into a single consensus
// instance, the scenario's disturbance fires on the instance hook, and
// the runtime's snapshot (check.Instance audit included) is the verdict.
func runLiveScenario(sc liveScenario, seed int64) liveRow {
	fail := func(format string, args ...any) liveRow {
		msg := fmt.Sprintf("E9 %s: %s", sc.name, fmt.Sprintf(format, args...))
		return liveRow{
			cells: []any{sc.name, sc.n, sc.t, "-", "-", "-", "-"},
			log:   fmt.Sprintf("%s: FAILED\n", sc.name),
			fails: []string{msg},
		}
	}
	// One scheduler thread, as chaos.RecordTrace pins it: the virtual
	// clock's settling is exact only under cooperative scheduling, and on
	// a loaded multi-P box it can call the first instant quiescent before
	// the batcher has run — a spurious wedge.
	defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(1))
	fab, err := chaos.NewFabric(chaos.Scenario{Seed: seed, N: sc.n})
	if err != nil {
		return fail("%v", err)
	}
	defer func() { _ = fab.Hub.Close() }()
	factory, wait, err := core.ByName(sc.algo)
	if err != nil {
		return fail("%v", err)
	}
	crashes := 0
	cfg := service.Config{
		N: sc.n, T: sc.t,
		Factory:     factory,
		WaitPolicy:  wait,
		BaseTimeout: sc.baseTimeout,
		MaxBatch:    sc.n,
		Linger:      500 * time.Millisecond, // the batch fills to n long before this
		MaxInflight: 1,
		Clock:       fab.Clock,
		OnInstance: func(_ uint64, cl *runtime.Cluster) {
			if sc.disturb != nil {
				crashes = sc.disturb(fab, cl)
			}
		},
	}
	if sc.adaptive {
		// Pin the controller's actuation envelope to the scenario's
		// static point: the scenario exercises algorithm selection, and
		// a controller free to decay the linger below the batch-fill
		// window could split the single n-proposal batch on a slow box.
		cfg.Adaptive = &adapt.Config{
			SelectAlgorithms: true,
			MinBatch:         cfg.MaxBatch, MaxBatch: cfg.MaxBatch,
			MinLinger: cfg.Linger, MaxLinger: cfg.Linger,
		}
	}
	svc, err := service.New(cfg, fab.Endpoints)
	if err != nil {
		return fail("%v", err)
	}

	// A healthy scenario finishes well inside a virtual second; the cap
	// only catches bugs (fd tickers keep the event queue alive forever,
	// so a dry queue is not the wedge signal here).
	const virtualCap = 30 * time.Second
	virtStart := fab.Clock.Now()
	load := workload.Waves(sc.n, 0, 0, func(i int) model.Value { return model.Value(i + 1) })
	outs, errs, wedged := fab.Submit(svc, load, virtualCap)
	if wedged {
		return fail("wedged after %v virtual", fab.Clock.Now().Sub(virtStart))
	}
	if err := svc.Close(); err != nil {
		return fail("close: %v", err)
	}
	dec := outs[0]
	for i, o := range outs {
		if errs[i] != nil {
			return fail("proposal %d: %v", i+1, errs[i])
		}
		if o.Instance != dec.Instance || o.Value != dec.Value || o.Round != dec.Round || o.Batch != dec.Batch {
			return fail("batch split across decisions: %+v vs %+v", o, dec)
		}
	}
	st := svc.Snapshot()

	latency := st.DecisionLatency.Max.Round(time.Microsecond)
	row := liveRow{
		cells: []any{sc.name, sc.n, sc.t, crashes, dec.Value, dec.Round, latency},
		log: fmt.Sprintf("%s: val=%d round=%d batch=%d crashes=%d latency=%v\n",
			sc.name, dec.Value, dec.Round, dec.Batch, crashes, latency),
	}
	expect := func(cond bool, format string, args ...any) {
		if !cond {
			row.fails = append(row.fails, fmt.Sprintf("E9 %s: %s", sc.name, fmt.Sprintf(format, args...)))
		}
	}
	// The service audits every instance with check.Instance: validity,
	// uniform agreement, and termination with crash-injected processes
	// excused. A silent audit is the scenario's core claim.
	expect(len(st.Violations) == 0, "check violations: %v", st.Violations)
	expect(st.Instances == 1 && st.Resolved == sc.n, "stats = %+v", st)
	expect(dec.Value >= 1 && int(dec.Value) <= sc.n, "decided unproposed value %d", dec.Value)
	expect(dec.Batch == sc.n, "batch = %d, want %d", dec.Batch, sc.n)
	if sc.wantRound != 0 {
		expect(dec.Round == sc.wantRound, "decision round %d, want exactly %d", dec.Round, sc.wantRound)
	}
	if sc.wantAlg != "" {
		expect(st.Algorithms[sc.wantAlg] == st.Instances,
			"algorithm mix %v, want every instance on %s", st.Algorithms, sc.wantAlg)
	}
	return row
}
