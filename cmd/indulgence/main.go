// Command indulgence is the command-line front end of the reproduction:
// it runs single simulated runs, worst-case serial-run explorations, the
// full experiment suite (regenerating every table in EXPERIMENTS.md), live
// goroutine clusters, and the multi-instance consensus service.
//
// Usage:
//
//	indulgence run   [-algo A] [-n N] [-t T] [-sched S] [-gsr K] [-seed S]
//	indulgence worst [-algo A] [-n N] [-t T] [-mode all|prefix] [-maxround R]
//	indulgence table [-id E1|E2|...|A4|all] [-samples N]
//	indulgence live  [-algo A] [-n N] [-t T] [-transport memory|tcp]
//	                 [-delay D] [-crash P] [-timeout D]
//	indulgence serve [-algo A] [-n N] [-t T] [-transport memory|tcp]
//	                 [-batch B] [-linger D] [-inflight I] [-journal DIR]
//	                 [-adaptive] [-adaptive-select] [-adaptive-batch-max B]
//	                 [-adaptive-linger-max D] [-verbose]
//	indulgence serve -peers p1=host:port,... -self N [-peers-file F]
//	                 [-cluster-id C] [-join-timeout D] [flags as above]
//	indulgence cluster [-n N] [-t T] [-proposals P] [-restart K]
//	                 [-journal DIR] [-bin PATH]
//	indulgence bench-service [-algo A] [-n N] [-t T] [-transport memory|tcp]
//	                 [-proposals P] [-clients C] [-batch B] [-linger D]
//	                 [-inflight I] [-delay D] [-heal D] [-timeout D]
//	                 [-classes K] [-journal DIR] [-adaptive] [-burst N] [-burst-idle D]
//	                 [-workload gen:SEED|@FILE|JSON] [-record FILE] [-live]
//	indulgence replay -journal DIR [-limit N] [-quiet] [-verify=false]
//	indulgence replay-trace [-verbose] FILE
//	indulgence chaos [-seed S] [-scenarios N] [-spec JSON|@FILE]
//	                 [-workload gen:SEED|@FILE|JSON] [-journal DIR] [-verbose]
//
// Algorithms: atplus2, atplus2ff, diamonds, afplus2, floodset, floodsetws,
// ct, hurfinraynal, amr. Schedules: ff, killer2, killer3, splitbrain,
// random, randomes, delayedsender.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"time"

	"indulgence/internal/check"
	"indulgence/internal/core"
	"indulgence/internal/experiments"
	"indulgence/internal/lowerbound"
	"indulgence/internal/model"
	"indulgence/internal/runtime"
	"indulgence/internal/sched"
	"indulgence/internal/sim"
	"indulgence/internal/stats"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "indulgence:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		usage()
		return errors.New("missing subcommand")
	}
	switch args[0] {
	case "run":
		return cmdRun(args[1:])
	case "worst":
		return cmdWorst(args[1:])
	case "table":
		return cmdTable(args[1:])
	case "live":
		return cmdLive(args[1:])
	case "serve":
		return cmdServe(args[1:])
	case "bench-service":
		return cmdBenchService(args[1:])
	case "cluster":
		return cmdCluster(args[1:])
	case "replay":
		return cmdReplay(args[1:])
	case "replay-trace":
		return cmdReplayTrace(args[1:])
	case "chaos":
		return cmdChaos(args[1:])
	case "help", "-h", "--help":
		usage()
		return nil
	default:
		usage()
		return fmt.Errorf("unknown subcommand %q", args[0])
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: indulgence <run|worst|table|live|serve|bench-service|replay|replay-trace|chaos> [flags]

  run            simulate one run of an algorithm under a schedule
  worst          explore all serial runs and report the worst-case decision round
  table          regenerate the paper's experiment tables (E1..E9, A1..A4, all)
  live           run a live goroutine cluster (in-memory or TCP transport)
  serve          run the consensus service; proposals read from stdin, one per line
                 (with -peers: run as one member of a multi-process cluster)
  bench-service  load test of the consensus service: closed loop, or a generated
                 open-loop workload with -workload (SLO classes, phase schedule;
                 -record FILE records a deterministic replayable trace)
  cluster        spawn a local multi-process cluster of serve -peers members,
                 optionally kill/restart one, and audit agreement across them
  replay         dump and verify a decision journal written by serve -journal
  replay-trace   re-execute a recorded workload trace and audit the replayed
                 decisions against the recording (byte-identical when recorded
                 deterministically); non-zero exit on any violation
  chaos          run seeded fault-injection scenarios on virtual time and audit
                 every decision; failing seeds print a replayable JSON spec
                 (-workload swaps wave load for generated classed arrivals)

run 'indulgence <cmd> -h' for the flags of each subcommand.`)
}

// scheduleByName builds a schedule from a generator name.
func scheduleByName(name string, n, t int, gsr model.Round, seed int64) (*sched.Schedule, model.Synchrony, error) {
	switch name {
	case "ff":
		return sched.FailureFree(n, t), model.ES, nil
	case "killer2":
		return sched.KillCoordinators(n, t, 2), model.ES, nil
	case "killer3":
		return sched.KillCoordinators(n, t, 3), model.ES, nil
	case "splitbrain":
		return sched.SplitBrain(n, model.Round(2*t+2)), model.ES, nil
	case "random":
		rng := rand.New(rand.NewSource(seed))
		return sched.RandomSynchronous(n, t, sched.RandomOpts{Rng: rng, DelayCrashSends: true}), model.ES, nil
	case "randomes":
		rng := rand.New(rand.NewSource(seed))
		if gsr < 2 {
			gsr = model.Round(t + 3)
		}
		return sched.RandomES(n, t, gsr, sched.RandomOpts{Rng: rng}), model.ES, nil
	case "delayedsender":
		if gsr < 2 {
			gsr = model.Round(t + 3)
		}
		return sched.DelayedSenderPrefix(n, t, gsr-1, 1), model.ES, nil
	default:
		return nil, 0, fmt.Errorf("unknown schedule %q", name)
	}
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	var (
		algo     = fs.String("algo", "atplus2", "algorithm")
		n        = fs.Int("n", 5, "number of processes")
		t        = fs.Int("t", 2, "resilience bound")
		name     = fs.String("sched", "ff", "schedule generator")
		gsr      = fs.Int("gsr", 0, "stabilization round for randomes/delayedsender")
		seed     = fs.Int64("seed", 1, "random seed")
		synch    = fs.String("model", "", "override model: scs or es")
		traceOut = fs.String("trace", "", "write the recorded run as JSON to this file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	factory, _, err := core.ByName(*algo)
	if err != nil {
		return err
	}
	s, syn, err := scheduleByName(*name, *n, *t, model.Round(*gsr), *seed)
	if err != nil {
		return err
	}
	switch *synch {
	case "scs":
		syn = model.SCS
	case "es":
		syn = model.ES
	case "":
	default:
		return fmt.Errorf("unknown model %q", *synch)
	}
	props := make([]model.Value, *n)
	for i := range props {
		props[i] = model.Value(i + 1)
	}
	cfg := sim.Config{Synchrony: syn, Schedule: s, Proposals: props, Factory: factory}
	if *algo == "atplus2" && *name == "splitbrain" {
		cfg.Factory = core.New(core.Options{UnsafeSkipResilienceCheck: true})
	}
	res, err := sim.Run(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("schedule: %v\n", s)
	table := stats.NewTable(fmt.Sprintf("run of %s under %s (%s)", *algo, *name, syn),
		"process", "proposal", "decision", "round", "crashed")
	for i, d := range res.Decisions {
		dec := "-"
		if d.Decided() {
			dec = fmt.Sprintf("%d", d.Value)
		}
		crash := "-"
		if res.CrashRounds[i] > 0 {
			crash = fmt.Sprintf("r%d", res.CrashRounds[i])
		}
		table.AddRowf(fmt.Sprintf("p%d", i+1), props[i], dec, d.Round, crash)
	}
	table.Render(os.Stdout)
	rep := check.Consensus(res, props)
	gdr, _ := res.GlobalDecisionRound()
	fmt.Printf("rounds executed: %d   global decision round: %d\n", res.Rounds, gdr)
	fmt.Printf("validity=%v agreement=%v termination=%v\n", rep.Validity, rep.Agreement, rep.Termination)
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := res.Run.WriteJSON(f); err != nil {
			return fmt.Errorf("write trace: %w", err)
		}
		fmt.Printf("trace written to %s\n", *traceOut)
	}
	return nil
}

func cmdWorst(args []string) error {
	fs := flag.NewFlagSet("worst", flag.ContinueOnError)
	var (
		algo     = fs.String("algo", "atplus2", "algorithm")
		n        = fs.Int("n", 5, "number of processes")
		t        = fs.Int("t", 2, "resilience bound")
		mode     = fs.String("mode", "prefix", "receiver-subset mode: prefix or all")
		maxRound = fs.Int("maxround", 0, "last round a crash may occur in (default 2t+2)")
		scs      = fs.Bool("scs", false, "explore under SCS instead of ES")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	factory, _, err := core.ByName(*algo)
	if err != nil {
		return err
	}
	m := lowerbound.PrefixSubsets
	if *mode == "all" {
		m = lowerbound.AllSubsets
	}
	syn := model.ES
	if *scs {
		syn = model.SCS
	}
	props := make([]model.Value, *n)
	for i := range props {
		props[i] = model.Value(i + 1)
	}
	res, err := lowerbound.Explore(lowerbound.Config{
		N: *n, T: *t,
		Synchrony:     syn,
		Factory:       factory,
		Proposals:     props,
		MaxCrashRound: model.Round(*maxRound),
		Mode:          m,
	})
	if err != nil {
		return err
	}
	fmt.Printf("explored %d serial runs of %s (n=%d t=%d %s)\n", res.Runs, *algo, *n, *t, syn)
	fmt.Printf("visited %d classes of runs with one execution, simulated %d runs\n", res.Visits, res.Simulated)
	fmt.Printf("worst-case global decision round: %d (earliest decision in that run: %d)\n",
		res.WorstRound, res.WitnessEarliest)
	fmt.Printf("witness: %v\n", res.Witness)
	if res.Undecided {
		fmt.Println("warning: some run did not decide within the horizon")
	}
	if res.PropertyViolation != nil {
		fmt.Printf("CONSENSUS VIOLATION: %v\n  in %v\n", res.PropertyViolation, res.ViolationWitness)
	}
	return nil
}

func cmdTable(args []string) error {
	fs := flag.NewFlagSet("table", flag.ContinueOnError)
	var (
		id      = fs.String("id", "all", "experiment id (E1..E9, A1..A4, all)")
		samples = fs.Int("samples", experiments.DefaultSamples, "sample count for randomized experiments")
		seed    = fs.Int64("seed", experiments.DefaultSeed, "random seed")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	var picked []experiments.Experiment
	for _, e := range experiments.Catalog {
		if *id == "all" || e.ID == *id {
			picked = append(picked, e)
		}
	}
	if picked == nil {
		return fmt.Errorf("unknown experiment %q", *id)
	}
	failed := 0
	for _, e := range picked {
		o, err := e.Run(*samples, *seed)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		fmt.Println(o)
		if !o.OK() {
			failed++
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d experiment(s) failed", failed)
	}
	return nil
}

func cmdLive(args []string) error {
	fs := flag.NewFlagSet("live", flag.ContinueOnError)
	var (
		algo    = fs.String("algo", "atplus2", "algorithm")
		n       = fs.Int("n", 5, "number of processes")
		t       = fs.Int("t", 2, "resilience bound")
		trans   = fs.String("transport", "memory", "transport: memory or tcp")
		delay   = fs.Duration("delay", 0, "delay injected on p1's outbound links (memory transport)")
		heal    = fs.Duration("heal", 200*time.Millisecond, "when to heal the injected delay")
		crash   = fs.Int("crash", 0, "crash this process shortly after start (0 = none)")
		timeout = fs.Duration("timeout", 25*time.Millisecond, "base suspicion timeout")
		wait    = fs.String("wait", "", "wait policy: unsuspected or quorum (default: the discipline -algo needs)")
		limit   = fs.Duration("limit", 30*time.Second, "overall deadline")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	factory, policy, err := core.ByName(*algo)
	if err != nil {
		return err
	}
	switch *wait {
	case "": // the algorithm's own discipline
	case "unsuspected":
		policy = core.WaitUnsuspected
	case "quorum":
		policy = core.WaitQuorum
	default:
		return fmt.Errorf("unknown wait policy %q", *wait)
	}

	eps, hub, closeTransport, err := buildEndpoints(*trans, *n)
	if err != nil {
		return err
	}
	defer closeTransport()

	props := make([]model.Value, *n)
	for i := range props {
		props[i] = model.Value(i + 1)
	}
	cl, err := runtime.New(runtime.Config{
		N: *n, T: *t,
		Factory:     factory,
		Proposals:   props,
		Endpoints:   eps,
		WaitPolicy:  policy,
		BaseTimeout: *timeout,
	})
	if err != nil {
		return err
	}
	if *delay > 0 && hub != nil {
		hub.DelayProcess(1, *delay)
		time.AfterFunc(*heal, hub.Heal)
	}
	if *crash > 0 {
		p := model.ProcessID(*crash)
		time.AfterFunc(*timeout/2, func() { _ = cl.Crash(p) })
	}
	ctx, cancel := context.WithTimeout(context.Background(), *limit)
	defer cancel()
	results, err := cl.Run(ctx)
	if err != nil {
		return err
	}
	table := stats.NewTable(fmt.Sprintf("live %s cluster, %s transport", *algo, *trans),
		"process", "proposal", "decision", "round", "latency", "crashed")
	for _, r := range results {
		dec := "-"
		if v, ok := r.Decision.Get(); ok {
			dec = fmt.Sprintf("%d", v)
		}
		table.AddRowf(fmt.Sprintf("p%d", r.ID), props[r.ID-1], dec, r.Round,
			r.Elapsed.Round(time.Microsecond), r.Crashed)
	}
	table.Render(os.Stdout)
	return nil
}
