package main

// Workload-driven load: bench-service's -workload mode (generated
// open-loop cohorts instead of the closed loop, optionally recorded as
// a trace) and the replay-trace subcommand that re-executes and audits
// a recorded trace.

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"indulgence/internal/adapt"
	"indulgence/internal/chaos"
	"indulgence/internal/service"
	"indulgence/internal/stats"
	"indulgence/internal/wire"
	"indulgence/internal/workload"
)

// parseWorkloadSpec resolves a -workload argument: "gen:<seed>[:<maxevents>]"
// derives a mixed-class spec from a bare seed (workload.GenSpec),
// "@FILE" reads a JSON spec from FILE, and anything else parses as
// inline JSON.
func parseWorkloadSpec(arg string) (*workload.Spec, error) {
	switch {
	case strings.HasPrefix(arg, "gen:"):
		parts := strings.Split(arg[len("gen:"):], ":")
		if len(parts) > 2 {
			return nil, fmt.Errorf("workload %q: want gen:<seed>[:<maxevents>]", arg)
		}
		seed, err := strconv.ParseInt(parts[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("workload %q: seed: %w", arg, err)
		}
		maxEvents := 48
		if len(parts) == 2 {
			if maxEvents, err = strconv.Atoi(parts[1]); err != nil {
				return nil, fmt.Errorf("workload %q: max events: %w", arg, err)
			}
		}
		spec := workload.GenSpec(seed, maxEvents)
		return spec, spec.Validate()
	case strings.HasPrefix(arg, "@"):
		b, err := os.ReadFile(arg[1:])
		if err != nil {
			return nil, err
		}
		return workload.ParseSpec(b)
	default:
		return workload.ParseSpec([]byte(arg))
	}
}

// benchWorkload is bench-service's -workload mode: the generated
// open-loop workload replaces the closed loop. A classed spec turns the
// adaptive plane on (per-class admission needs it) and -classes 0
// resolves to the spec's class count. Without -record the run drives
// the real-clock service; -record executes the run deterministically on
// virtual time and writes the trace; -record -live records the
// real-clock run instead.
func benchWorkload(f serviceFlags, wlArg, recordPath string, liveRec bool, limit time.Duration) error {
	spec, err := parseWorkloadSpec(wlArg)
	if err != nil {
		return err
	}
	if spec.Classes() > 1 {
		*f.adaptive = true
	}
	if *f.classes == 0 {
		*f.classes = spec.Classes()
	}
	if liveRec && recordPath == "" {
		return errors.New("-live needs -record FILE")
	}
	if recordPath != "" && !liveRec {
		return recordWorkload(f, spec, recordPath)
	}
	return runWorkloadLive(f, spec, recordPath, limit)
}

// recordWorkload executes the workload deterministically — virtual
// clock, faultless fault fabric, one scheduler thread — and writes the
// trace. The trace header alone reproduces the run, so the file is its
// own fixture: replay-trace re-executes it and must match byte for
// byte.
func recordWorkload(f serviceFlags, spec *workload.Spec, path string) error {
	sc := chaos.WorkloadScenario(chaos.Scenario{
		Seed:        spec.Seed,
		N:           *f.n,
		T:           *f.t,
		Algorithm:   *f.algo,
		Adaptive:    *f.adaptive,
		Classes:     *f.classes,
		BaseTimeout: *f.timeout,
		MaxBatch:    *f.batch,
		Linger:      *f.linger,
		MaxInflight: *f.inflight,
	}, spec)
	tr, res := chaos.RecordTrace(sc.TraceHeader(), chaos.Options{})
	if res.Err != nil {
		return res.Err
	}
	fmt.Printf("recorded: %d events -> %d decided, %d shed, %d failed; %v virtual in %v wall\n",
		len(tr.Events), res.Decided, res.Shed, res.Failed,
		res.Virtual.Round(time.Microsecond), res.Wall.Round(time.Millisecond))
	if err := workload.WriteTrace(path, tr); err != nil {
		return err
	}
	fmt.Printf("trace written to %s (replay with: indulgence replay-trace %s)\n", path, path)
	if !res.OK() {
		return fmt.Errorf("recording run violated consensus: %v", res.Violations)
	}
	if res.Failed > 0 {
		return fmt.Errorf("%d proposals failed during recording", res.Failed)
	}
	return nil
}

// runWorkloadLive drives the workload open-loop against the real-clock
// service (drive with no client bound: arrivals do not slow down when
// the service does — that is what makes saturation and class shedding
// observable). With a record path the run streams to a live
// (non-deterministic) trace.
func runWorkloadLive(f serviceFlags, spec *workload.Spec, recordPath string, limit time.Duration) error {
	events := spec.Events()
	if len(events) == 0 {
		return errors.New("workload generates no events")
	}
	s, err := f.start()
	if err != nil {
		return err
	}
	defer s.cleanup()

	var w *workload.Writer
	if recordPath != "" {
		hdr := wire.TraceHeaderRecord{
			Version:      wire.TraceFormatVersion,
			Seed:         spec.Seed,
			N:            *f.n,
			T:            *f.t,
			MaxBatch:     *f.batch,
			MaxInflight:  *f.inflight,
			LingerNanos:  int64(*f.linger),
			TimeoutNanos: int64(*f.timeout),
			Algorithm:    *f.algo,
			Classes:      *f.classes,
			Spec:         spec.JSON(),
		}
		// Deterministic stays false: a real-clock replay reproduces the
		// arrivals, not the outcomes, so replay-trace audits consistency
		// instead of identity.
		if w, err = workload.NewWriter(recordPath, hdr); err != nil {
			return err
		}
		for _, e := range events {
			if err := w.Event(e.Record()); err != nil {
				return err
			}
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), limit)
	defer cancel()
	begin := time.Now()
	outcomes := drive(ctx, s.svc, events, 0)
	elapsed := time.Since(begin)
	if err := s.svc.Close(); err != nil {
		return err
	}
	if w != nil {
		for _, o := range outcomes {
			if err := w.Outcome(o); err != nil {
				return err
			}
		}
		if err := w.Close(); err != nil {
			return err
		}
		fmt.Printf("live trace written to %s (audit with: indulgence replay-trace %s)\n", recordPath, recordPath)
	}
	return workloadReport(f, s.svc.Snapshot(), spec, events, outcomes, elapsed)
}

// drive is the real clock's load driver: it releases each event at its
// At offset to one of at most clients concurrent workers, all running
// driveEvent, and returns one outcome per event, in event order, once
// every event has resolved. clients < 1 lifts the bound — the open loop,
// where an event never waits for an earlier one; with a bound an event
// due while every worker is busy waits for one, which is the closed
// loop. Events must be At-sorted. When ctx ends, the events not yet
// resolved fail.
func drive(ctx context.Context, svc *service.Service, events []workload.Event, clients int) []wire.TraceOutcomeRecord {
	if clients < 1 {
		clients = len(events)
	}
	outcomes := make([]wire.TraceOutcomeRecord, len(events))
	free := make(chan struct{}, clients)
	var wg sync.WaitGroup
	begin := time.Now()
	for i, e := range events {
		if d := e.At - time.Since(begin); d > 0 {
			select {
			case <-time.After(d):
			case <-ctx.Done():
			}
		}
		// No ctx case: once ctx ends every busy worker's driveEvent
		// returns at once, so a slot frees.
		free <- struct{}{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			outcomes[i] = driveEvent(ctx, svc, e)
			<-free
		}()
	}
	wg.Wait()
	return outcomes
}

// driveEvent submits one workload event and resolves its fate. Shed
// proposals retry on the control plane's own terms — back off
// RetryAfter, give up once the class's retry budget is spent — so
// higher classes, with their larger budgets, outlast overload.
func driveEvent(ctx context.Context, svc *service.Service, e workload.Event) (rec wire.TraceOutcomeRecord) {
	rec = wire.TraceOutcomeRecord{Seq: uint64(e.Seq), Class: e.Class, Status: wire.TraceFailed}
	start := time.Now()
	defer func() { rec.LatencyNanos = int64(time.Since(start)) }()
	for retries := 0; ; retries++ {
		var dec service.Decision
		fut, err := svc.ProposeClass(ctx, e.Class, e.Value)
		if err == nil {
			dec, err = fut.Wait(ctx)
		}
		var oe *adapt.OverloadError
		switch {
		case err == nil:
			rec.Status = wire.TraceDecided
			rec.Instance, rec.Value, rec.Round, rec.Batch, rec.Class = dec.Instance, dec.Value, dec.Round, dec.Batch, dec.Class
			return rec
		case !errors.As(err, &oe):
			return rec
		case retries >= oe.Budget:
			rec.Status = wire.TraceShed
			return rec
		}
		select {
		case <-time.After(oe.RetryAfter):
		case <-ctx.Done():
			return rec
		}
	}
}

// workloadReport renders the per-class outcome table of one live
// workload run: client-observed latency per SLO class (what the class
// actually bought), service-side admission sheds, and aggregate rates.
// Class attribution follows the submitting event, not the decision —
// a decision carries its batch's class (the highest member), but the
// SLO a client experiences is its own cohort's.
func workloadReport(f serviceFlags, st service.Stats, spec *workload.Spec, events []workload.Event, outcomes []wire.TraceOutcomeRecord, elapsed time.Duration) error {
	classes := spec.Classes()
	if *f.classes > classes {
		classes = *f.classes
	}
	decided, shed, failed := 0, 0, 0
	perDecided := make([]int, classes)
	perShed := make([]int, classes)
	perLat := make([][]time.Duration, classes)
	for i, o := range outcomes {
		c := min(events[i].Class, classes-1)
		switch o.Status {
		case wire.TraceDecided:
			decided++
			perDecided[c]++
			perLat[c] = append(perLat[c], time.Duration(o.LatencyNanos))
		case wire.TraceShed:
			shed++
			perShed[c]++
		default:
			failed++
		}
	}
	title := fmt.Sprintf("workload: %s, n=%d t=%d, %s transport, %d cohorts, %d classes, %d events",
		*f.algo, *f.n, *f.t, *f.trans, len(spec.Cohorts), classes, len(outcomes))
	table := stats.NewTable(title, "metric", "value")
	table.AddRowf("events decided", decided)
	table.AddRowf("events shed (budget spent)", shed)
	table.AddRowf("events failed", failed)
	table.AddRowf("wall time", elapsed.Round(time.Millisecond))
	table.AddRowf("decided/sec", fmt.Sprintf("%.0f", float64(decided)/elapsed.Seconds()))
	for c := classes - 1; c >= 0; c-- {
		sum := stats.SummarizeDurations(perLat[c])
		table.AddRowf(fmt.Sprintf("class %d", c),
			fmt.Sprintf("%d decided, %d shed, p50 %s p90 %s p99 %s p999 %s",
				perDecided[c], perShed[c],
				sum.P50.Round(time.Microsecond), sum.P90.Round(time.Microsecond),
				sum.P99.Round(time.Microsecond), sum.P999.Round(time.Microsecond)))
	}
	table.AddRowf("service sheds (admission)", st.Overloads)
	if len(st.OverloadsByClass) > 0 {
		table.AddRowf("sheds by class", fmt.Sprintf("%v", st.OverloadsByClass))
	}
	table.AddRowf("check violations", len(st.Violations))
	table.Render(os.Stdout)
	var failErr error
	if failed > 0 {
		failErr = fmt.Errorf("%d events failed", failed)
	}
	return violationsErr(st.Violations, failErr)
}

// cmdReplayTrace replays a recorded workload trace and audits it. A
// deterministic trace re-executes on virtual time and must reproduce
// every recorded outcome byte-identically; a live recording is audited
// standalone (arrivals regenerate from the embedded spec, outcomes form
// a consistent decision journal). Any violation is a non-zero exit.
func cmdReplayTrace(args []string) error {
	fs := flag.NewFlagSet("replay-trace", flag.ContinueOnError)
	verbose := fs.Bool("verbose", false, "print the replayed decision log")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return errors.New("usage: indulgence replay-trace [-verbose] FILE")
	}
	tr, err := workload.ReadTrace(fs.Arg(0))
	if err != nil {
		return err
	}
	hdr := tr.Header
	mode := "deterministic"
	if !hdr.Deterministic {
		mode = "live (real-clock)"
	}
	fmt.Printf("trace: v%d %s, seed %d, %s n=%d t=%d", hdr.Version, mode, hdr.Seed, hdr.Algorithm, hdr.N, hdr.T)
	if hdr.Classes > 1 {
		fmt.Printf(", %d classes", hdr.Classes)
	}
	fmt.Printf("; %d events, %d outcomes\n", len(tr.Events), len(tr.Outcomes))
	if tr.TornBytes > 0 {
		fmt.Printf("trace: dropped a %d-byte torn tail\n", tr.TornBytes)
	}
	rep, replayed, res := chaos.ReplayTrace(tr, chaos.Options{})
	if res.Err != nil {
		return res.Err
	}
	if replayed != nil {
		fmt.Printf("replayed: %d decided, %d shed, %d failed; %v virtual in %v wall\n",
			res.Decided, res.Shed, res.Failed,
			res.Virtual.Round(time.Microsecond), res.Wall.Round(time.Millisecond))
		if *verbose && res.Log != "" {
			fmt.Print(res.Log)
		}
	}
	for _, v := range rep.Violations {
		fmt.Printf("violation: %s\n", v)
	}
	if !rep.OK() {
		return fmt.Errorf("replay audit found %d violations", len(rep.Violations))
	}
	if replayed != nil {
		fmt.Println("replay audit clean: every recorded outcome reproduced")
	} else {
		fmt.Println("trace audit clean: arrivals regenerate and recorded decisions are consistent")
	}
	return nil
}
