package experiments

import (
	"fmt"
	"math/rand"

	"indulgence/internal/check"
	"indulgence/internal/core"
	"indulgence/internal/lowerbound"
	"indulgence/internal/model"
	"indulgence/internal/sched"
	"indulgence/internal/sim"
)

// sweepResult aggregates decision-round measurements over a run family.
type sweepResult struct {
	runs            int
	worst           model.Round // largest global decision round
	earliest        model.Round // smallest per-process decision round seen
	undecided       bool
	violations      int
	eliminationErrs int
	haltClaimErrs   int
}

// serialWorst explores all serial runs of a factory under syn (ES, or SCS
// for the synchronous crash-stop algorithms FloodSet and FloodSetWS) and
// reports the worst and earliest decision rounds.
func serialWorst(factory model.Factory, syn model.Synchrony, n, t int, maxCrashRound model.Round, mode lowerbound.SubsetMode) (*sweepResult, error) {
	res, err := lowerbound.Explore(lowerbound.Config{
		N: n, T: t,
		Synchrony:     syn,
		Factory:       factory,
		Proposals:     distinctProposals(n),
		MaxCrashRound: maxCrashRound,
		Mode:          mode,
	})
	if err != nil {
		return nil, err
	}
	out := &sweepResult{
		runs:      res.Runs,
		worst:     res.WorstRound,
		earliest:  res.WitnessEarliest,
		undecided: res.Undecided,
	}
	if res.PropertyViolation != nil {
		out.violations = 1
	}
	return out, nil
}

// sweepChunk bounds how many traced runs a batched sweep holds in memory
// at once: schedules are cheap and generated up front, but each traced
// Result retains every delivered message, so batches are processed (and
// released) chunk by chunk.
const sweepChunk = 256

// batchChunked executes cfgs through sim.RunBatch one chunk at a time,
// folding each chunk's results in input order before the next chunk runs —
// the parallelism of a full batch with the memory profile of a serial
// loop.
func batchChunked(cfgs []sim.Config, fold func(*sim.Result)) error {
	for start := 0; start < len(cfgs); start += sweepChunk {
		end := min(start+sweepChunk, len(cfgs))
		results, err := sim.RunBatch(0, cfgs[start:end])
		if err != nil {
			// RunBatch reports a chunk-relative index; name the absolute
			// sample range so a failure can be localized.
			return fmt.Errorf("samples %d..%d: %w", start, end-1, err)
		}
		for _, res := range results {
			fold(res)
		}
	}
	return nil
}

// randomSynchronousSweep runs the factory over `samples` random synchronous
// schedules (arbitrary crash patterns, not just serial) and aggregates
// decision rounds; with checkCore it additionally replays the elimination
// and Halt checks of A_{t+2} on each recorded run. The schedules are drawn
// serially (the rng stream is identical to a serial sweep), the runs fan
// out over the shared sim.RunBatch worker pool in bounded chunks, and the
// measurements are folded in sample order — the resulting tables are
// byte-identical for any worker count.
func randomSynchronousSweep(factory model.Factory, n, t, samples int, seed int64, checkCore bool) (*sweepResult, error) {
	rng := rand.New(rand.NewSource(seed))
	out := &sweepResult{earliest: 1 << 30}
	props := distinctProposals(n)
	cfgs := make([]sim.Config, samples)
	for i := range cfgs {
		cfgs[i] = sim.Config{
			Synchrony: model.ES,
			Schedule: sched.RandomSynchronous(n, t, sched.RandomOpts{
				Rng:             rng,
				MaxCrashRound:   model.Round(t + 2),
				DelayCrashSends: true,
			}),
			Proposals: props,
			Factory:   factory,
		}
	}
	err := batchChunked(cfgs, func(res *sim.Result) {
		out.runs++
		gdr, decided := res.GlobalDecisionRound()
		if !decided || !res.AllAliveDecided {
			out.undecided = true
			return
		}
		if gdr > out.worst {
			out.worst = gdr
		}
		if e, ok := check.EarliestDecisionRound(res); ok && e < out.earliest {
			out.earliest = e
		}
		if rep := check.Consensus(res, props); !rep.Validity || !rep.Agreement {
			out.violations++
		}
		if checkCore && res.Run != nil {
			if err := core.CheckElimination(res.Run); err != nil {
				out.eliminationErrs++
			}
			if err := core.CheckSynchronousHalt(res.Run); err != nil {
				out.haltClaimErrs++
			}
		}
	})
	if err != nil {
		return nil, fmt.Errorf("random sweep: %w", err)
	}
	return out, nil
}

// runOnce simulates a single schedule and returns the result and report.
func runOnce(factory model.Factory, s *sched.Schedule, props []model.Value) (*sim.Result, check.Report, error) {
	res, err := sim.Run(sim.Config{
		Synchrony: model.ES,
		Schedule:  s,
		Proposals: props,
		Factory:   factory,
	})
	if err != nil {
		return nil, check.Report{}, err
	}
	return res, check.Consensus(res, props), nil
}

// runPair simulates two factory/schedule pairs (typically an ablated and a
// faithful variant on the same adversary) concurrently on the shared
// worker pool and returns both results with their consensus reports.
func runPair(fa model.Factory, sa *sched.Schedule, fb model.Factory, sb *sched.Schedule, props []model.Value) (ra, rb *sim.Result, repa, repb check.Report, err error) {
	results, err := sim.RunBatch(0, []sim.Config{
		{Synchrony: model.ES, Schedule: sa, Proposals: props, Factory: fa},
		{Synchrony: model.ES, Schedule: sb, Proposals: props, Factory: fb},
	})
	if err != nil {
		return nil, nil, check.Report{}, check.Report{}, err
	}
	ra, rb = results[0], results[1]
	return ra, rb, check.Consensus(ra, props), check.Consensus(rb, props), nil
}

// gdrOf returns the global decision round or 0.
func gdrOf(res *sim.Result) model.Round {
	gdr, _ := res.GlobalDecisionRound()
	return gdr
}

// witnessKiller returns the coordinator-killer witness builder for a
// rotating-coordinator algorithm with the given phase length.
func witnessKiller(roundsPerPhase int) func(n, t int) *sched.Schedule {
	return func(n, t int) *sched.Schedule {
		return sched.KillCoordinators(n, t, roundsPerPhase)
	}
}
