package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"indulgence/internal/check"
	"indulgence/internal/journal"
	"indulgence/internal/stats"
)

// cmdReplay dumps and verifies a decision journal: it replays every
// intact record (tolerating a torn tail on the final segment, as
// recovery does), prints them, and audits the log with check.Replay —
// the offline counterpart of the service's per-instance audit — plus,
// when decision-trace records are on file, a trace audit: every trace's
// chosen algorithm must agree with the same instance's tagged start
// claim, so each selector demotion is recoverable from the journal
// alone. A journal that fails either audit, or is corrupt before its
// final segment, exits non-zero.
func cmdReplay(args []string) error {
	fs := flag.NewFlagSet("replay", flag.ContinueOnError)
	var (
		dir    = fs.String("journal", "", "journal directory (required)")
		limit  = fs.Int("limit", 32, "print at most this many records (0 = all)")
		quiet  = fs.Bool("quiet", false, "suppress the record table")
		traces = fs.Bool("traces", false, "also print the decision-trace records")
		verify = fs.Bool("verify", true, "audit the journal with check.Replay")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dir == "" {
		return fmt.Errorf("replay: -journal is required")
	}

	// The directory is one journal: what serve -journal DIR writes, or
	// one group-NNNN subdirectory of the retired per-group layout audited
	// on its own.
	hist, err := journal.ReadHistory(*dir)
	if err != nil {
		return err
	}
	recs, starts, trecs := hist.Records, hist.Starts, hist.Traces

	// The claimed algorithm of each decided instance, when on record.
	// Only a tagged claim for the exact instance counts: a selecting
	// service claims per instance, so its journals label every decision,
	// while block claims (whose covered range is not recoverable from
	// the record) show "-" rather than risk attributing a later
	// lifetime's algorithm to instances it never covered.
	algOf := make(map[uint64]string, len(starts))
	for _, s := range starts {
		if s.Alg != "" {
			algOf[s.Instance] = s.Alg
		}
	}

	if !*quiet {
		table := stats.NewTable(fmt.Sprintf("journal %s", *dir),
			"instance", "value", "round", "batch", "algorithm")
		shown := len(recs)
		if *limit > 0 && shown > *limit {
			shown = *limit
		}
		for _, r := range recs[:shown] {
			alg := algOf[r.Instance]
			if alg == "" {
				alg = "-"
			}
			table.AddRowf(r.Instance, r.Value, r.Round, r.Batch, alg)
		}
		table.Render(os.Stdout)
		if shown < len(recs) {
			fmt.Printf("... and %d more (raise -limit to see them)\n", len(recs)-shown)
		}
	}
	if *traces && len(trecs) > 0 {
		table := stats.NewTable(fmt.Sprintf("decision traces %s", *dir),
			"instance", "level", "chosen", "not taken", "susp", "queue", "fill%", "batch", "linger", "ewma", "shed")
		shown := len(trecs)
		if *limit > 0 && shown > *limit {
			shown = *limit
		}
		for _, tr := range trecs[:shown] {
			table.AddRowf(tr.Instance, tr.Level, tr.Chosen, strings.Join(tr.NotTaken, ","),
				tr.Suspicions, fmt.Sprintf("%d/%d", tr.QueueLen, tr.QueueCap), tr.BatchFill,
				tr.BatchLimit, time.Duration(tr.LingerNanos), time.Duration(tr.EWMANanos),
				fmt.Sprintf("%08b", tr.ShedMask))
		}
		table.Render(os.Stdout)
		if shown < len(trecs) {
			fmt.Printf("... and %d more traces (raise -limit to see them)\n", len(trecs)-shown)
		}
	}
	fmt.Printf("%d decisions, %d instance starts, %d decision traces, %d segments; frontier %d\n",
		len(recs), len(starts), len(trecs), hist.Segments, hist.Frontier)
	if hist.TornBytes > 0 {
		fmt.Printf("torn tail: %d trailing bytes of the final segment are not intact records (recovery drops them)\n",
			hist.TornBytes)
	}

	if *verify {
		rep := check.Replay(recs, starts, nil)
		if !rep.OK() {
			return fmt.Errorf("journal audit failed: %v", rep.Err())
		}
		// Trace audit: a decision-trace record and a tagged start claim
		// for the same instance were journaled by the same flush, so
		// their algorithms must agree — this is what makes every selector
		// demotion recoverable from the journal alone.
		for _, tr := range trecs {
			if claimed, ok := algOf[tr.Instance]; ok && tr.Chosen != "" && tr.Chosen != claimed {
				return fmt.Errorf("journal audit failed: instance %d trace chose %q but start claim says %q",
					tr.Instance, tr.Chosen, claimed)
			}
		}
		if len(trecs) > 0 {
			fmt.Printf("audit: validity and agreement hold; %d decision traces agree with their start claims\n", len(trecs))
		} else {
			fmt.Println("audit: validity and agreement hold over the journaled history")
		}
	}
	return nil
}
