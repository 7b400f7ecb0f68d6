package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"indulgence/internal/adapt"
	"indulgence/internal/core"
	"indulgence/internal/journal"
	"indulgence/internal/metrics"
	"indulgence/internal/model"
	"indulgence/internal/service"
	"indulgence/internal/stats"
	"indulgence/internal/transport"
	"indulgence/internal/wire"
	"indulgence/internal/workload"
)

// buildEndpoints assembles n transport endpoints over the chosen
// transport. hub is nil for tcp; closer shuts the transport down.
func buildEndpoints(trans string, n int) (eps []transport.Transport, hub *transport.Hub, closer func(), err error) {
	eps = make([]transport.Transport, n)
	switch trans {
	case "memory":
		hub, err = transport.NewHub(n)
		if err != nil {
			return nil, nil, nil, err
		}
		for i := range eps {
			if eps[i], err = hub.Endpoint(model.ProcessID(i + 1)); err != nil {
				_ = hub.Close()
				return nil, nil, nil, err
			}
		}
		return eps, hub, func() { _ = hub.Close() }, nil
	case "tcp":
		tc, err := transport.NewTCPCluster(n)
		if err != nil {
			return nil, nil, nil, err
		}
		for i := range eps {
			if eps[i], err = tc.Endpoint(model.ProcessID(i + 1)); err != nil {
				_ = tc.Close()
				return nil, nil, nil, err
			}
		}
		return eps, nil, func() { _ = tc.Close() }, nil
	default:
		return nil, nil, nil, fmt.Errorf("unknown transport %q", trans)
	}
}

// serviceFlags are the flags shared by serve and bench-service.
type serviceFlags struct {
	algo     *string
	n, t     *int
	trans    *string
	batch    *int
	linger   *time.Duration
	inflight *int
	timeout  *time.Duration
	journal  *string
	segment  *int64

	// Ops endpoint (internal/metrics): -metrics-addr serves the live
	// registry as Prometheus text and JSON plus net/http/pprof.
	metricsAddr *string

	// Adaptive control plane (internal/adapt): feedback-tuned batching
	// and admission, plus per-instance algorithm selection (single-
	// process mode only).
	adaptive      *bool
	adaptSelect   *bool
	adaptBatchMax *int
	adaptLingMax  *time.Duration
	classes       *int

	// Multi-process peer mode (serve only): a non-empty -peers or
	// -peers-file makes this process ONE member of a cluster of
	// separately launched processes instead of hosting all n in-process.
	peers       *string
	peersFile   *string
	self        *int
	clusterID   *string
	joinTimeout *time.Duration
	verbose     *bool
}

func newServiceFlags(fs *flag.FlagSet) serviceFlags {
	return serviceFlags{
		algo:     fs.String("algo", "atplus2", "algorithm"),
		n:        fs.Int("n", 5, "number of processes"),
		t:        fs.Int("t", 2, "resilience bound"),
		trans:    fs.String("transport", "memory", "transport: memory or tcp"),
		batch:    fs.Int("batch", 8, "max proposals per consensus instance"),
		linger:   fs.Duration("linger", 2*time.Millisecond, "max wait to fill a batch"),
		inflight: fs.Int("inflight", 64, "max concurrently running instances"),
		timeout:  fs.Duration("timeout", 25*time.Millisecond, "base suspicion timeout"),
		journal:  fs.String("journal", "", "durable decision journal directory (empty = no journal)"),
		segment:  fs.Int64("segment-bytes", 1<<20, "journal segment rotation size"),

		metricsAddr: fs.String("metrics-addr", "", "ops endpoint address (host:port or :port) serving /metrics, /metrics.json and /debug/pprof (empty = off)"),

		adaptive:      fs.Bool("adaptive", false, "attach the feedback control plane: batch/linger tuned from observed latency and backlog, overload shed with a typed error"),
		adaptSelect:   fs.Bool("adaptive-select", true, "with -adaptive: pick each instance's algorithm from recent outcomes (A_f+2 when synchronous and trusted; single-process mode only)"),
		adaptBatchMax: fs.Int("adaptive-batch-max", 64, "with -adaptive: controller batch ceiling"),
		adaptLingMax:  fs.Duration("adaptive-linger-max", 8*time.Millisecond, "with -adaptive: controller linger ceiling"),
		classes:       fs.Int("classes", 0, "with -adaptive: SLO classes admission distinguishes, shedding lowest first (0 = classless, or the spec's class count for -workload runs)"),

		peers:       fs.String("peers", "", "peer list p1=host:port,p2=host:port,... — run as ONE member of a multi-process cluster"),
		peersFile:   fs.String("peers-file", "", "file with one pN=host:port peer entry per line (alternative to -peers)"),
		self:        fs.Int("self", 0, "this process's ID in the peer list (peer mode)"),
		clusterID:   fs.String("cluster-id", "", "cluster name carried in the TCP handshake (default \"indulgence\")"),
		joinTimeout: fs.Duration("join-timeout", 10*time.Second, "deadline for instances joined on a peer's signal (peer mode)"),
		verbose:     fs.Bool("verbose", false, "log transport connection events to stderr (peer mode)"),
	}
}

// adaptConfig builds the control-plane config the flags ask for (nil
// without -adaptive). selectAlgos additionally gates the selector —
// peer mode must pass false, a member cannot switch a shared slot's
// protocol unilaterally.
func (f serviceFlags) adaptConfig(selectAlgos bool) *adapt.Config {
	if !*f.adaptive {
		return nil
	}
	cfg := &adapt.Config{
		MaxBatch:         *f.adaptBatchMax,
		MaxLinger:        *f.adaptLingMax,
		SelectAlgorithms: selectAlgos && *f.adaptSelect,
		Classes:          *f.classes,
	}
	if *f.verbose {
		cfg.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	return cfg
}

// started is the running service — the one shape every flag
// combination produces, hosting all n processes (serve, bench-service) or
// one (serve -peers) — plus what was built underneath it.
type started struct {
	svc     *service.Service
	journal *journal.Journal // nil without -journal
	hub     *transport.Hub   // memory transport only (delay injection)
	cleanup func()
}

// serviceConfig is the service template the flags describe — -algo
// resolved to its factory and the receive discipline it needs; the
// caller adds N, the control plane and the registry.
func (f serviceFlags) serviceConfig() (service.Config, error) {
	factory, wait, err := core.ByName(*f.algo)
	return service.Config{
		T:           *f.t,
		Factory:     factory,
		WaitPolicy:  wait,
		BaseTimeout: *f.timeout,
		MaxBatch:    *f.batch,
		Linger:      *f.linger,
		MaxInflight: *f.inflight,
		JoinTimeout: *f.joinTimeout,
	}, err
}

// start builds the transport and the service hosting all n processes on
// it from the parsed flags. The returned cleanup closes the transport and
// the ops endpoint; call it after the service is closed.
func (f serviceFlags) start() (*started, error) {
	cfg, err := f.serviceConfig()
	if err != nil {
		return nil, err
	}
	eps, hub, closeTransport, err := buildEndpoints(*f.trans, *f.n)
	if err != nil {
		return nil, err
	}
	cfg.N = *f.n
	cfg.Adaptive = f.adaptConfig(true)
	s, err := f.startOn(cfg, eps, closeTransport)
	if err != nil {
		return nil, err
	}
	s.hub = hub
	return s, nil
}

// startOn starts the service that hosts the processes behind eps, with
// the ops endpoint -metrics-addr and the journal -journal ask for.
// cleanup releases what the caller built underneath; startOn runs it on
// failure, and on success extends it to close the service, then the
// journal, then the ops endpoint first.
func (f serviceFlags) startOn(cfg service.Config, eps []transport.Transport, cleanup func()) (*started, error) {
	s := &started{cleanup: cleanup}
	// then runs release before what cleanup already releases.
	then := func(release func()) {
		below := s.cleanup
		s.cleanup = func() { release(); below() }
	}
	if *f.metricsAddr != "" {
		// One registry spans the service, its control plane and the
		// journal, so one scrape shows the full picture.
		cfg.Metrics = metrics.NewRegistry()
		ops, err := metrics.ServeOps(*f.metricsAddr, cfg.Metrics)
		if err != nil {
			cleanup()
			return nil, fmt.Errorf("ops endpoint: %w", err)
		}
		then(func() { _ = ops.Close() })
		fmt.Printf("ops: http://%s/metrics (Prometheus text), /metrics.json (snapshot), /debug/pprof\n", ops.Addr())
	}
	if *f.journal != "" {
		jn, err := journal.Open(*f.journal, journal.Options{SegmentBytes: *f.segment, Metrics: cfg.Metrics})
		if err != nil {
			s.cleanup()
			return nil, err
		}
		then(func() { _ = jn.Close() })
		s.journal, cfg.Journal = jn, jn
	}
	svc, err := service.New(cfg, eps)
	if err != nil {
		s.cleanup()
		return nil, err
	}
	then(func() { _ = svc.Close() })
	s.svc = svc
	return s, nil
}

// serveLoop reads one integer proposal per stdin line, proposes each, and
// prints its decision when the instance it rode resolves. It returns when
// stdin hits EOF and every future has fired.
func serveLoop(svc *service.Service) error {
	ctx := context.Background()
	var wg sync.WaitGroup
	var scanErr error
	sc := bufio.NewScanner(os.Stdin)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		v, err := strconv.ParseInt(line, 10, 64)
		if err != nil {
			fmt.Printf("not a proposal: %q\n", line)
			continue
		}
		fut, err := svc.Propose(ctx, model.Value(v))
		if err != nil {
			scanErr = err
			break
		}
		wg.Add(1)
		go func(v int64) {
			defer wg.Done()
			dec, err := fut.Wait(ctx)
			if err != nil {
				fmt.Printf("proposal %d failed: %v\n", v, err)
				return
			}
			fmt.Printf("proposal %d -> instance %d decided %d (round %d, batch of %d)\n",
				v, dec.Instance, dec.Value, dec.Round, dec.Batch)
		}(v)
	}
	if scanErr == nil {
		scanErr = sc.Err()
	}
	wg.Wait()
	return scanErr
}

// cmdServe runs the consensus service interactively: every line on stdin
// is one integer proposal; its decision is printed when the instance it
// was batched into resolves. EOF drains the service and prints a summary.
// With -peers (or -peers-file) the process serves as ONE member of a
// multi-process cluster instead of hosting all n processes itself.
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	f := newServiceFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *f.peers != "" || *f.peersFile != "" {
		explicit := make(map[string]bool)
		fs.Visit(func(fl *flag.Flag) { explicit[fl.Name] = true })
		return servePeer(f, explicit)
	}
	s, err := f.start()
	if err != nil {
		return err
	}
	defer s.cleanup()

	fmt.Printf("consensus service up: %s, n=%d t=%d, %s transport, batch ≤ %d, linger %s, ≤ %d instances inflight\n",
		*f.algo, *f.n, *f.t, *f.trans, *f.batch, *f.linger, *f.inflight)
	if *f.adaptive {
		mode := "batch/linger tuning + admission"
		if *f.adaptSelect {
			mode += " + per-instance algorithm selection"
		}
		fmt.Printf("adaptive control plane on: %s (decision log with -verbose)\n", mode)
	}
	return s.serve(*f.adaptive)
}

// serve is what both serve modes do once their service is up and
// announced: report what the journal recovered, pump stdin proposals
// until EOF, drain, and summarize. Any live consensus violation is a
// non-zero exit.
func (s *started) serve(adaptive bool) error {
	jn := s.journal
	if jn != nil {
		st := jn.Snapshot()
		fmt.Printf("journal: %s — recovered %d decisions (+%d starts), resuming at instance %d",
			jn.Dir(), st.Decisions, st.Starts, st.Frontier)
		if st.TornBytes > 0 {
			fmt.Printf(" (dropped a %d-byte torn tail)", st.TornBytes)
		}
		fmt.Println()
	}
	fmt.Println("enter one integer proposal per line (EOF to stop):")

	scanErr := serveLoop(s.svc)
	if err := s.svc.Close(); err != nil {
		return err
	}
	st := s.svc.Snapshot()
	fmt.Printf("served %d proposals over %d instances (%d joined from peers); latency %s\n",
		st.Resolved, st.Instances, st.JoinedInstances, st.Latency)
	if adaptive {
		fmt.Printf("control plane: %d adjustments over %d ticks, %d selector transitions, %d proposals shed; algorithms %s; final batch ≤ %d linger %s\n",
			st.Control.Adjustments, st.Control.Ticks, st.Control.Transitions, st.Overloads, formatAlgs(st.Algorithms),
			st.Control.Batch, st.Control.Linger)
	}
	if jn != nil {
		js := jn.Snapshot()
		fmt.Printf("journal: %d decisions durable over %d fsyncs; fsync %s\n",
			js.Decisions, js.Syncs, js.SyncLatency)
	}
	return violationsErr(st.Violations, scanErr)
}

// violationsErr is the exit rule every report shares: a live consensus
// violation fails the run; otherwise the run's own error (if any) stands.
func violationsErr(violations []string, err error) error {
	if len(violations) > 0 {
		return fmt.Errorf("%d consensus violations: %v", len(violations), violations)
	}
	return err
}

// formatAlgs renders an instances-per-algorithm map as a stable
// name:count list.
func formatAlgs(algs map[string]int) string {
	if len(algs) == 0 {
		return "-"
	}
	names := make([]string, 0, len(algs))
	for name := range algs {
		names = append(names, name)
	}
	sort.Strings(names)
	parts := make([]string, 0, len(names))
	for _, name := range names {
		parts = append(parts, fmt.Sprintf("%s:%d", name, algs[name]))
	}
	return strings.Join(parts, " ")
}

// cmdBenchService is the closed-loop load generator: P proposals are
// released to C client workers (each proposes, waits, takes the next),
// optionally under an injected asynchronous period or a bursty arrival
// pattern (-burst releases proposals in waves separated by idle gaps —
// the shape the adaptive controller is built for), and the run reports
// throughput and latency percentiles. Proposals shed by admission
// control (-adaptive under saturation) retry on the control plane's
// terms (driveEvent); one that spends its budget fails the run.
func cmdBenchService(args []string) error {
	fs := flag.NewFlagSet("bench-service", flag.ContinueOnError)
	f := newServiceFlags(fs)
	var (
		proposals = fs.Int("proposals", 2048, "total proposals to drive")
		clients   = fs.Int("clients", 128, "closed-loop client workers")
		delay     = fs.Duration("delay", 0, "delay injected on p1's outbound links (memory transport)")
		heal      = fs.Duration("heal", 500*time.Millisecond, "when to heal the injected delay")
		burst     = fs.Int("burst", 0, "release proposals in waves of this size (0 = steady closed loop)")
		burstIdle = fs.Duration("burst-idle", 50*time.Millisecond, "idle gap between bursts")
		limit     = fs.Duration("limit", 5*time.Minute, "overall deadline")
		wl        = fs.String("workload", "", "drive a generated open-loop workload instead of the closed loop: gen:<seed>[:<maxevents>], @FILE or inline JSON")
		record    = fs.String("record", "", "with -workload: record the run as a replayable trace at this path (deterministic virtual-time execution unless -live)")
		liveRec   = fs.Bool("live", false, "with -workload -record: record the real-clock run instead of the deterministic virtual one")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *wl != "" {
		return benchWorkload(f, *wl, *record, *liveRec, *limit)
	}
	if *record != "" || *liveRec {
		return errors.New("-record and -live need -workload")
	}
	s, err := f.start()
	if err != nil {
		return err
	}
	defer s.cleanup()
	if *delay > 0 {
		if s.hub == nil {
			return fmt.Errorf("delay injection needs the memory transport")
		}
		s.hub.DelayProcess(1, *delay)
		time.AfterFunc(*heal, s.hub.Heal)
	}

	// The closed loop is an event list like any workload: everything due
	// at once for the steady loop, or -burst sized waves -burst-idle
	// apart (the workers idle through a gap, so the service sees real
	// silence between waves), released to -clients workers.
	events := workload.Waves(*proposals, *burst, *burstIdle, func(i int) model.Value { return model.Value(i + 1) })
	ctx, cancel := context.WithTimeout(context.Background(), *limit)
	defer cancel()
	begin := time.Now()
	outcomes := drive(ctx, s.svc, events, *clients)
	elapsed := time.Since(begin)
	if err := s.svc.Close(); err != nil {
		return err
	}
	unresolved := 0
	for _, o := range outcomes {
		if o.Status != wire.TraceDecided {
			unresolved++
		}
	}

	st := s.svc.Snapshot()
	title := fmt.Sprintf("bench-service: %s, n=%d t=%d, %s transport, %d clients, batch ≤ %d, ≤ %d inflight",
		*f.algo, *f.n, *f.t, *f.trans, *clients, *f.batch, *f.inflight)
	if *f.adaptive {
		title += ", adaptive"
	}
	if *burst > 0 {
		title += fmt.Sprintf(", bursts of %d every %s", *burst, *burstIdle)
	}
	us := func(d time.Duration) time.Duration { return d.Round(time.Microsecond) }
	table := stats.NewTable(title, "metric", "value")
	table.AddRowf("proposals resolved", st.Resolved)
	table.AddRowf("instances decided", st.Instances)
	table.AddRowf("wall time", elapsed.Round(time.Millisecond))
	table.AddRowf("proposals/sec", fmt.Sprintf("%.0f", float64(st.Resolved)/elapsed.Seconds()))
	table.AddRowf("decisions/sec (instances)", fmt.Sprintf("%.0f", float64(st.Instances)/elapsed.Seconds()))
	table.AddRowf("mean batch", fmt.Sprintf("%.2f", float64(st.Resolved)/float64(max(st.Instances, 1))))
	table.AddRowf("proposals shed (overload)", st.Overloads)
	table.AddRowf("check violations", len(st.Violations))
	if *f.adaptive {
		table.AddRowf("controller adjustments", st.Control.Adjustments)
		table.AddRowf("controller ticks", st.Control.Ticks)
		table.AddRowf("selector transitions", st.Control.Transitions)
		table.AddRowf("algorithms", formatAlgs(st.Algorithms))
	}
	if s.journal != nil {
		js := s.journal.Snapshot()
		table.AddRowf("journal", fmt.Sprintf("%d decisions durable / %d fsyncs (group commits), fsync p99 %s, %d segments",
			js.Decisions, js.Syncs, us(js.SyncLatency.P99), js.Segments))
	}
	row := func(metric, format string, args ...any) {
		table.AddRowf(metric, fmt.Sprintf(format, args...))
	}
	row("batch fill mean", "%.0f%%", st.BatchFill.Mean)
	row("latency", "p50 %s p90 %s p99 %s max %s",
		us(st.Latency.P50), us(st.Latency.P90), us(st.Latency.P99), us(st.Latency.Max))
	row("decision / round latency p50", "%s / %s", us(st.DecisionLatency.P50), us(st.RoundLatency.P50))
	row("rounds min..max (t+2 floor)", "%d..%d (%d)", st.Rounds.Min, st.Rounds.Max, *f.t+2)
	if *f.adaptive {
		row("effective batch / linger (final)", "%d / %s", st.Control.Batch, st.Control.Linger)
	}
	table.Render(os.Stdout)
	var failed error
	if st.Failed > 0 || st.InstanceFailures > 0 || unresolved > 0 {
		failed = fmt.Errorf("%d proposals / %d instances failed; %d of %d proposals ended undecided (shed past their retry budget, or failed)",
			st.Failed, st.InstanceFailures, unresolved, len(outcomes))
	}
	return violationsErr(st.Violations, failed)
}
