package experiments

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"indulgence/internal/adapt"
	"indulgence/internal/chaos"
	"indulgence/internal/chaos/clock"
	"indulgence/internal/core"
	"indulgence/internal/model"
	"indulgence/internal/runtime"
	"indulgence/internal/service"
	"indulgence/internal/stats"
	"indulgence/internal/transport"
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
	// scenario's clock (for scheduling the heal), hub (delay injection)
	// and cluster (crash injection); it returns the number of crashed
	// processes.
	disturb func(clk clock.Clock, hub *transport.Hub, cl *runtime.Cluster) int
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
			disturb: func(clk clock.Clock, hub *transport.Hub, _ *runtime.Cluster) int {
				hub.DelayProcess(1, 80*time.Millisecond)
				clk.AfterFunc(200*time.Millisecond, hub.Heal)
				return 0
			},
		},
		{
			name: "crash p2 at start, A_t+2", n: 5, t: 2,
			algo:        "atplus2",
			baseTimeout: 10 * time.Millisecond,
			disturb: func(_ clock.Clock, _ *transport.Hub, cl *runtime.Cluster) int {
				_ = cl.Crash(2)
				return 1
			},
		},
		{
			name: "crash p1+p2, A_f+2", n: 7, t: 2,
			algo:        "afplus2",
			baseTimeout: 10 * time.Millisecond,
			disturb: func(_ clock.Clock, _ *transport.Hub, cl *runtime.Cluster) int {
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
// reproducibility witness: for one seed, two runs (on a cooperatively
// scheduled runtime — pin GOMAXPROCS to 1) must produce identical bytes,
// because every cross-process frame is a tagged clock event whose
// ordering is a pure function of (seed, frame contents).
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

// runLiveScenario drives one scenario through a dedicated service on a
// fresh virtual clock: the n distinct proposals batch into a single
// consensus instance, the scenario's disturbance fires on the instance
// hook, and the service's snapshot (check.Instance audit included) is
// the verdict. The endpoints are wrapped in a quiet chaos fabric — no
// faults, but every cross-process frame becomes a seed-tagged clock
// event, which is what makes the schedule replayable.
func runLiveScenario(sc liveScenario, seed int64) liveRow {
	fail := func(format string, args ...any) liveRow {
		msg := fmt.Sprintf("E9 %s: %s", sc.name, fmt.Sprintf(format, args...))
		return liveRow{
			cells: []any{sc.name, sc.n, sc.t, "-", "-", "-", "-"},
			log:   fmt.Sprintf("%s: FAILED\n", sc.name),
			fails: []string{msg},
		}
	}
	clk := clock.NewVirtual()
	virtStart := clk.Now()
	hub, err := transport.NewHubClock(sc.n, clk)
	if err != nil {
		return fail("%v", err)
	}
	defer func() { _ = hub.Close() }()
	nw := chaos.NewNetwork(chaos.Scenario{Seed: seed}, clk)
	eps := make([]transport.Transport, sc.n)
	for i := 0; i < sc.n; i++ {
		ep, err := hub.Endpoint(model.ProcessID(i + 1))
		if err != nil {
			return fail("%v", err)
		}
		eps[i] = nw.Wrap(ep)
	}
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
		Clock:       clk,
		OnInstance: func(_ uint64, cl *runtime.Cluster) {
			if sc.disturb != nil {
				crashes = sc.disturb(clk, hub, cl)
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
	svc, err := service.New(cfg, eps)
	if err != nil {
		return fail("%v", err)
	}
	defer func() { _ = svc.Close() }()

	futs := make([]*service.Future, sc.n)
	for i := range futs {
		if futs[i], err = svc.Propose(context.Background(), model.Value(i+1)); err != nil {
			return fail("propose: %v", err)
		}
	}
	decs := make([]service.Decision, sc.n)
	errs := make([]error, sc.n)
	var wg sync.WaitGroup
	wg.Add(sc.n)
	for i, fut := range futs {
		i, fut := i, fut
		go func() {
			defer wg.Done()
			decs[i], errs[i] = fut.Wait(context.Background())
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()

	// Drive the virtual schedule until every future resolves. A healthy
	// scenario finishes well inside a virtual second; the cap and wall
	// watchdog only catch bugs (fd tickers keep the event queue alive
	// forever, so a dry queue is not the wedge signal here).
	const virtualCap = 30 * time.Second
	wallDeadline := time.Now().Add(15 * time.Second)
	finished := clk.Run(done, func() bool {
		return clk.Now().Sub(virtStart) > virtualCap || time.Now().After(wallDeadline)
	})
	if !finished {
		svc.Abort()
		<-done
		return fail("wedged after %v virtual", clk.Now().Sub(virtStart))
	}
	var dec service.Decision
	for i := range futs {
		if errs[i] != nil {
			return fail("wait: %v", errs[i])
		}
		if i == 0 {
			dec = decs[i]
		} else if decs[i] != dec {
			return fail("batch split across decisions: %+v vs %+v", decs[i], dec)
		}
	}
	if err := svc.Close(); err != nil {
		return fail("close: %v", err)
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
