package chaos

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"indulgence/internal/adapt"
	"indulgence/internal/chaos/clock"
	"indulgence/internal/check"
	"indulgence/internal/core"
	"indulgence/internal/journal"
	"indulgence/internal/metrics"
	"indulgence/internal/model"
	"indulgence/internal/runtime"
	"indulgence/internal/service"
	"indulgence/internal/shard"
	"indulgence/internal/transport"
	"indulgence/internal/wire"
	"indulgence/internal/workload"
)

// Options tunes a chaos run.
type Options struct {
	// JournalDir is where the run's decision journal lives ("" = a
	// private temp directory, removed after the run). A kept journal is
	// the post-mortem artifact of a failing seed.
	JournalDir string
	// MaxWall is the wall-clock watchdog (default 15s): a run that
	// cannot finish its virtual schedule within it is reported wedged.
	// Virtual-time runs finish in milliseconds; the watchdog only fires
	// on a genuine livelock.
	MaxWall time.Duration
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
	// exception is stripped before the snapshot lands here: transport
	// frame counters tally decide-flooding that shutdown cuts off
	// mid-stride, so their totals are an artifact of teardown timing,
	// not of the seed.
	Metrics string
	// Outcomes holds one trace outcome record per workload event, by
	// event sequence number — only populated for workload scenarios.
	// Together with the regenerable event stream they form the run's
	// trace (see ExecuteTrace).
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

// errAborted marks proposals whose futures were cut off by a wedge
// abort (distinct from service failures, which carry their own error).
var errAborted = errors.New("chaos: run aborted")

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
	res := Result{Scenario: sc}
	if err := sc.Validate(); err != nil {
		res.Err = err
		return res
	}
	factory, policy, err := core.ByName(sc.Algorithm)
	if err != nil {
		res.Err = err
		return res
	}
	if opts.MaxWall <= 0 {
		opts.MaxWall = 15 * time.Second
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

	clk := clock.NewVirtual()
	virtStart := clk.Now()
	//indulgence:wallclock wedge watchdog measures real elapsed time, outside the virtual run
	wallStart := time.Now()

	hub, err := transport.NewHubClock(sc.N, clk)
	if err != nil {
		res.Err = err
		return res
	}
	defer hub.Close()
	nw := NewNetwork(sc, clk)
	eps := make([]transport.Transport, sc.N)
	for i := range eps {
		ep, err := hub.Endpoint(model.ProcessID(i + 1))
		if err != nil {
			res.Err = err
			return res
		}
		eps[i] = nw.Wrap(ep)
	}

	cp := &crashPlan{down: make(map[model.ProcessID]bool)}
	for _, c := range sc.Crashes {
		c := c
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
	// The runtime under test, one group or many. NoSync on every journal:
	// it is an audit trail here, not a durability promise, and fsync
	// stalls would leak wall time into the virtual schedule.
	rt, err := shard.New(shard.Config{
		Service:        cfg,
		Groups:         sc.Groups,
		JournalDir:     dir,
		JournalOptions: journal.Options{NoSync: true},
	}, eps)
	if err != nil {
		res.Err = err
		return res
	}

	// Proposal load. Wave scenarios submit Waves fixed waves on the
	// clock driver; workload scenarios submit each generated event at
	// its arrival instant, at its cohort's SLO class. Either way every
	// future is awaited by its own goroutine and outs is indexed by
	// proposal/event number, so the decision log's order is the load
	// order, not the resolution order.
	type outcome struct {
		dec     service.Decision
		err     error
		shed    bool
		class   int
		latency time.Duration
	}
	var events []workload.Event
	nProps := sc.Proposals
	if sc.Workload != nil {
		events = sc.Workload.Events()
		nProps = len(events)
	}
	outs := make([]outcome, nProps)
	var wg sync.WaitGroup
	wg.Add(nProps)
	var loadMu sync.Mutex
	submitted, aborted := 0, false
	value := func(idx int) model.Value {
		return model.Value(int64(idx+1)*1_000_003 + sc.Seed)
	}
	// submitOne proposes one load item (class-tagged) and hands its
	// future to a waiter goroutine. Callers hold loadMu.
	submitOne := func(i, class int, v model.Value) {
		start := clk.Now()
		fut, err := rt.ProposeClass(context.Background(), class, v)
		if err != nil {
			outs[i] = outcome{err: err, shed: errors.Is(err, adapt.ErrOverload), class: class}
			wg.Done()
			return
		}
		go func() {
			defer wg.Done()
			dec, err := fut.Wait(context.Background())
			outs[i] = outcome{dec: dec, err: err, class: class, latency: clk.Now().Sub(start)}
		}()
	}
	submitWave := func(lo, hi int) {
		loadMu.Lock()
		defer loadMu.Unlock()
		if aborted {
			for i := lo; i < hi; i++ {
				outs[i] = outcome{err: errAborted}
				wg.Done()
			}
			return
		}
		for i := lo; i < hi; i++ {
			submitOne(i, 0, value(i))
		}
		if hi > submitted {
			submitted = hi
		}
	}
	submitEvent := func(e workload.Event) {
		loadMu.Lock()
		defer loadMu.Unlock()
		if aborted {
			outs[e.Seq] = outcome{err: errAborted, class: e.Class}
			wg.Done()
			return
		}
		submitOne(int(e.Seq), e.Class, e.Value)
		if int(e.Seq)+1 > submitted {
			submitted = int(e.Seq) + 1
		}
	}
	waves := sc.Waves
	if waves < 1 {
		waves = 1
	}
	if sc.Workload != nil {
		// Events are At-sorted and same-instant callbacks fire in
		// registration order, so submission order is event order.
		for _, e := range events {
			e := e
			clk.AfterFuncTagged(e.At, 0, func() { submitEvent(e) })
		}
	} else {
		per := (sc.Proposals + waves - 1) / waves
		for w := 0; w < waves; w++ {
			lo := w * per
			hi := lo + per
			if hi > sc.Proposals {
				hi = sc.Proposals
			}
			if lo >= hi {
				break
			}
			clk.AfterFuncTagged(time.Duration(w)*sc.WaveGap, 0, func() { submitWave(lo, hi) })
		}
	}

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()

	// Drive the virtual schedule: settle the goroutine fabric, then
	// fire the next instant, until every future has resolved. Every
	// instance carries a virtual deadline, so a healthy run terminates
	// on its own; the virtual cap and wall watchdog only catch bugs.
	virtualCap := sc.Horizon + 2*sc.InstanceTimeout +
		time.Duration(waves)*sc.WaveGap + time.Second
	if sc.Workload != nil {
		virtualCap += sc.Workload.Duration()
	}
	wallDeadline := wallStart.Add(opts.MaxWall)
	res.Wedged = !clk.Run(done, func() bool {
		//indulgence:wallclock wedge watchdog compares real elapsed time against the wall cap
		return clk.Now().Sub(virtStart) > virtualCap || time.Now().After(wallDeadline)
	})
	if res.Wedged {
		loadMu.Lock()
		aborted = true
		for i := submitted; i < nProps; i++ {
			outs[i] = outcome{err: errAborted}
			wg.Done()
		}
		loadMu.Unlock()
		rt.Abort()
		<-done
		res.Violations = append(res.Violations,
			//indulgence:wallclock wedge report quotes real elapsed time
			fmt.Sprintf("wedged after %v virtual / %v wall", clk.Now().Sub(virtStart), time.Since(wallStart)))
	} else {
		rt.Close()
	}

	res.Virtual = clk.Now().Sub(virtStart)
	//indulgence:wallclock Result.Wall reports real elapsed run time by definition
	res.Wall = time.Since(wallStart)

	// The final registry snapshot, at quiescence: every instrument fed
	// by the run has settled, so this render is the run's deterministic
	// introspection record — minus the frame counters, which count
	// flood frames shutdown truncates at a point the schedule does not
	// force.
	res.Metrics = stripFrameSeries(reg.Text())

	// Audit 1: every group's own live check.Instance findings.
	res.Violations = append(res.Violations, rt.Snapshot().Violations...)

	// Audit 2: replay the journals against the futures' view — every
	// group in one stream, which arms check.Replay's cross-group
	// instance audit.
	hist, err := shard.ReplayDir(dir, rt.Groups())
	if err != nil {
		res.Err = fmt.Errorf("chaos: replay journal: %w", err)
		return res
	}
	live := make(map[uint64]model.Value)
	for _, o := range outs {
		if o.err == nil {
			live[o.dec.Instance] = o.dec.Value
		}
	}
	rep := check.Replay(hist.Records, hist.Starts, live)
	res.Violations = append(res.Violations, rep.Violations...)

	// The canonical decision log (wave format unchanged — legacy specs
	// must keep producing byte-identical logs) and, for workload runs,
	// the trace outcomes. Latency rides the outcome record but stays out
	// of the log: it is a measurement, not a decision.
	var b strings.Builder
	if sc.Workload != nil {
		res.Outcomes = make([]wire.TraceOutcomeRecord, nProps)
		for i, o := range outs {
			rec := wire.TraceOutcomeRecord{Seq: uint64(i), Class: o.class, LatencyNanos: int64(o.latency)}
			switch {
			case o.shed:
				res.Shed++
				rec.Status = wire.TraceShed
				fmt.Fprintf(&b, "e%04d c%d shed\n", i, o.class)
			case o.err != nil:
				res.Failed++
				rec.Status = wire.TraceFailed
				fmt.Fprintf(&b, "e%04d c%d failed: %v\n", i, o.class, o.err)
			default:
				res.Decided++
				rec.Status = wire.TraceDecided
				rec.Instance = o.dec.Instance
				rec.Value = o.dec.Value
				rec.Round = o.dec.Round
				rec.Batch = o.dec.Batch
				rec.Group = o.dec.Instance % uint64(rt.Groups())
				rec.Class = o.dec.Class
				fmt.Fprintf(&b, "e%04d c%d v=%d -> inst=%d val=%d round=%d batch=%d class=%d\n",
					i, o.class, events[i].Value, o.dec.Instance, o.dec.Value, o.dec.Round, o.dec.Batch, o.dec.Class)
			}
			res.Outcomes[i] = rec
		}
	} else {
		for i, o := range outs {
			switch {
			case o.shed:
				res.Shed++
				fmt.Fprintf(&b, "p%03d shed\n", i)
			case o.err != nil:
				res.Failed++
				fmt.Fprintf(&b, "p%03d failed: %v\n", i, o.err)
			default:
				res.Decided++
				fmt.Fprintf(&b, "p%03d v=%d -> inst=%d val=%d round=%d batch=%d\n",
					i, value(i), o.dec.Instance, o.dec.Value, o.dec.Round, o.dec.Batch)
			}
		}
	}
	res.Log = b.String()
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

// Sweep generates and runs count scenarios from consecutive seeds
// starting at baseSeed. onRun, when non-nil, observes every result as
// it completes (the CLI uses it for progress and failure printing).
func Sweep(baseSeed int64, count int, opts Options, onRun func(Result)) SweepStats {
	return SweepGroups(baseSeed, count, 1, opts, onRun)
}

// SweepGroups is Sweep on the sharded runtime: every generated scenario
// runs with the given group count (via GenerateGroups, so the fault
// schedules match Sweep's seed for seed — the sweep exercises the same
// adversaries against the multi-group stack). groups <= 1 is exactly
// Sweep.
func SweepGroups(baseSeed int64, count, groups int, opts Options, onRun func(Result)) SweepStats {
	return sweepWith(func(seed int64) Scenario { return GenerateGroups(seed, groups) },
		baseSeed, count, opts, onRun)
}

// SweepWorkload runs the generated adversaries of SweepGroups with each
// scenario's fixed wave load replaced by the given workload (clamped per
// scenario via WorkloadScenario): the same seeded partitions, gray links
// and crashes, now exercised under classed multi-cohort arrivals.
func SweepWorkload(baseSeed int64, count, groups int, spec *workload.Spec, opts Options, onRun func(Result)) SweepStats {
	return sweepWith(func(seed int64) Scenario {
		return WorkloadScenario(GenerateGroups(seed, groups), spec)
	}, baseSeed, count, opts, onRun)
}

// WorkloadScenario replaces sc's wave load with a generated workload:
// the spec's event cap is clamped to the scenario's intake bound (load
// is submitted on the clock driver and must never block), wave fields
// are cleared, and a classed workload arms per-class admission on the
// adaptive plane.
func WorkloadScenario(sc Scenario, spec *workload.Spec) Scenario {
	w := *spec
	bound := sc.MaxBatch * sc.MaxInflight * max(sc.Groups, 1)
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

// sweepWith drives one batch of seeded scenario runs; the sweep shapes
// share it.
func sweepWith(gen func(int64) Scenario, baseSeed int64, count int, opts Options, onRun func(Result)) SweepStats {
	var st SweepStats
	for i := 0; i < count; i++ {
		r := Run(gen(baseSeed+int64(i)), opts)
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
// rendered snapshot. A decided node floods its DECIDE until Stop
// reaches it, and shutdown truncates that flood at a point the virtual
// schedule does not force — so frame totals are the one instrument
// family that is teardown timing, not seed. Everything else in the
// snapshot stays byte-identical run over run.
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
