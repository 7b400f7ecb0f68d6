package main

import (
	"flag"
	"fmt"
	"os"
	goruntime "runtime"
	"strings"
	"time"

	"indulgence/internal/chaos"
	"indulgence/internal/workload"
)

// cmdChaos runs seeded chaos scenarios on virtual time and audits every
// run. A failing seed prints its full JSON spec; feeding that spec back
// via -spec replays the identical execution.
func cmdChaos(args []string) error {
	fs := flag.NewFlagSet("chaos", flag.ExitOnError)
	seed := fs.Int64("seed", 1, "first scenario seed")
	count := fs.Int("scenarios", 100, "number of consecutive seeds to run")
	spec := fs.String("spec", "", "JSON scenario spec to run instead of generated seeds (@FILE reads it from FILE)")
	wl := fs.String("workload", "", "replace each generated scenario's wave load with this workload: gen:<seed>[:<maxevents>], @FILE or inline JSON (event cap clamps per scenario)")
	journalDir := fs.String("journal", "", "keep each run's decision journal under this directory (debugging; default: private temp dirs)")
	verbose := fs.Bool("verbose", false, "print every scenario's outcome, not just failures")
	if err := fs.Parse(args); err != nil {
		return err
	}

	// The replay contract is per-schedule, and schedules are only exact
	// when goroutines are cooperatively serialized.
	goruntime.GOMAXPROCS(1)

	opts := chaos.Options{JournalDir: *journalDir}

	if *spec != "" {
		raw := []byte(*spec)
		if (*spec)[0] == '@' {
			b, err := os.ReadFile((*spec)[1:])
			if err != nil {
				return err
			}
			raw = b
		}
		sc, err := chaos.ParseScenario(raw)
		if err != nil {
			return err
		}
		r := chaos.Run(sc, opts)
		printChaosResult(r, true)
		if !r.OK() || r.Failed > 0 {
			return fmt.Errorf("scenario seed %d failed", sc.Seed)
		}
		return nil
	}

	onRun := func(r chaos.Result) {
		if *verbose || !r.OK() || r.Failed > 0 {
			printChaosResult(r, *verbose)
		}
	}
	var wspec *workload.Spec // nil keeps each scenario's own wave load
	if *wl != "" {
		var err error
		if wspec, err = parseWorkloadSpec(*wl); err != nil {
			return err
		}
	}
	wallStart := time.Now()
	st := chaos.Sweep(*seed, *count, wspec, opts, onRun)
	wall := time.Since(wallStart)
	perSec := float64(st.Runs) / wall.Seconds()
	speedup := float64(st.Virtual) / float64(wall)
	fmt.Printf("chaos: %d scenarios, %d decided, %d shed, %d failed, %d failing seeds\n",
		st.Runs, st.Decided, st.Shed, st.Failed, len(st.Failures))
	fmt.Printf("chaos: %.1f scenarios/s wall, %v virtual in %v wall (%.0fx compression)\n",
		perSec, st.Virtual.Round(time.Millisecond), wall.Round(time.Millisecond), speedup)
	if len(st.Failures) > 0 {
		return fmt.Errorf("%d of %d scenarios failed; replay any with: indulgence chaos -spec '<spec JSON above>'",
			len(st.Failures), st.Runs)
	}
	return nil
}

// printChaosResult reports one run; failures always include the replay
// spec and the audit findings.
func printChaosResult(r chaos.Result, withLog bool) {
	ok := r.OK() && r.Failed == 0
	status := "ok"
	if !ok {
		status = "FAIL"
	}
	fmt.Printf("seed %d: %s decided=%d shed=%d failed=%d virtual=%v wall=%v\n",
		r.Scenario.Seed, status, r.Decided, r.Shed, r.Failed,
		r.Virtual.Round(time.Microsecond), r.Wall.Round(time.Microsecond))
	if r.Err != nil {
		fmt.Printf("  error: %v\n", r.Err)
	}
	for _, v := range r.Violations {
		fmt.Printf("  violation: %s\n", v)
	}
	if !ok {
		fmt.Printf("  spec: %s\n", r.Scenario.JSON())
		// The final metrics snapshot is deterministic per seed, so it is
		// part of the failure's reproducible fingerprint — the replayed
		// run must render it byte-identically.
		if r.Metrics != "" {
			fmt.Println("  metrics snapshot at quiescence:")
			for _, line := range strings.Split(strings.TrimRight(r.Metrics, "\n"), "\n") {
				fmt.Printf("    %s\n", line)
			}
		}
	}
	if withLog && r.Log != "" {
		fmt.Print(r.Log)
	}
}
