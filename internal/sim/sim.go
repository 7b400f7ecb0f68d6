// Package sim executes round-based algorithms under adversary schedules,
// implementing the exact delivery semantics of the paper's two models: the
// synchronous crash-stop model SCS and the eventually synchronous model ES.
// It is a deterministic lockstep simulator: given the same configuration it
// produces the same run, which is what makes the lower-bound exploration
// and the indistinguishability constructions reproducible.
//
// The simulator owns the adversary: the schedule's fates decide which
// messages reach which process in which round. Each round, every sender's
// message is stored once, with the receivers it does not reach in that
// round; only a delayed message is queued for the round that delivers it.
// What a receive set holds is not its own rule: each process's
// payload.Inbox assembles it — one round-k message per sender plus the
// delayed messages of earlier rounds, sorted by (round, sender) — the
// same type the live runtime's nodes assemble their receive sets with.
// Every receiver of a message reads the payload its sender returned from
// StartRound: payloads are never mutated (model.Payload), so the
// simulator copies no payload, not even into a recorded trace.
//
// The simulator also runs the DECIDE rule for every algorithm, as the
// live node does: a process whose receive set holds a DECIDE decides its
// value without its EndRound being called. A process that decides in
// round k is never called again: it sends DECIDE once, in round k+1, and
// halts, taking no receive step from round k+1 on. A halted process is
// correct and decided; its silence is not a crash, for t-resilience or
// for the simulated detector (fd.Simulate).
//
// The package offers three entry points, fastest last:
//
//   - Run executes a single run (a convenience wrapper);
//   - Simulator executes many runs while reusing scratch state — the hot
//     path of the exhaustive explorer and the random sweeps;
//   - RunBatch fans a slice of independent runs out over a bounded worker
//     pool, one Simulator per worker, preserving input order.
package sim

import (
	"errors"
	"fmt"

	"indulgence/internal/model"
	"indulgence/internal/pool"
	"indulgence/internal/sched"
	"indulgence/internal/trace"
)

// Errors returned by Run.
var (
	// ErrConfig reports an invalid configuration.
	ErrConfig = errors.New("sim: invalid configuration")
)

// Config describes one run.
type Config struct {
	// Synchrony selects the model (SCS or ES).
	Synchrony model.Synchrony
	// Schedule is the adversary script; it must validate under Synchrony.
	Schedule *sched.Schedule
	// Proposals holds one proposal per process (Proposals[id-1]).
	Proposals []model.Value
	// Factory constructs each process's algorithm.
	Factory model.Factory
	// MaxRounds caps the execution. 0 selects a generous default that
	// covers every algorithm in this repository: the schedule's last
	// scheduled round plus 3n + 8(t+2) + 12 rounds.
	MaxRounds model.Round
	// SkipTrace suppresses per-round history recording (Result.Run will
	// be nil); decisions, crash rounds and message counts are still
	// reported. Used by the lower-bound explorer, which runs millions of
	// simulations.
	SkipTrace bool
	// SkipValidation trusts the schedule to be valid for the model.
	// Only generators that produce valid-by-construction schedules
	// (such as the explorer) should set it.
	SkipValidation bool
}

// Decision is one process's decision.
type Decision struct {
	// Value is the decided value.
	Value model.Value
	// Round is the round at the end of which the process decided
	// (0 if it never decided).
	Round model.Round
}

// Decided reports whether a decision was taken.
func (d Decision) Decided() bool { return d.Round > 0 }

// Result reports one run's outcome.
type Result struct {
	// Decisions holds one entry per process (Decisions[id-1]).
	Decisions []Decision
	// CrashRounds holds each process's crash round (0 = never crashed),
	// copied from the schedule for the checkers' convenience.
	CrashRounds []model.Round
	// Rounds is the number of rounds executed.
	Rounds model.Round
	// AllAliveDecided reports whether every process alive at the end of
	// the run had decided (the run reached quiescence rather than the
	// round cap).
	AllAliveDecided bool
	// MessagesSent counts point-to-point messages entering the channels
	// (n per broadcast, self-delivery included), the message complexity
	// of the run.
	MessagesSent int
	// MessagesDelivered counts messages actually handed to receive
	// phases (sent minus losses and minus deliveries to crashed or
	// halted receivers).
	MessagesDelivered int
	// Run is the full trace, nil when SkipTrace was set.
	Run *trace.Run
}

// GlobalDecisionRound returns the global decision round (Sect. 1.3): the
// largest decision round among deciding processes. ok is false if nobody
// decided.
func (r *Result) GlobalDecisionRound() (round model.Round, ok bool) {
	for _, d := range r.Decisions {
		if d.Round > round {
			round, ok = d.Round, true
		}
	}
	return round, ok
}

type delivery struct {
	to  model.ProcessID
	msg model.Message
}

// Run executes one run and returns its outcome. The error is non-nil only
// for configuration problems or algorithm contract violations; consensus
// property violations (possible with invalid resilience, as in the
// split-brain experiment) are reported by package check, not here.
//
// Run is a convenience wrapper over a fresh Simulator; callers executing
// many runs should reuse a Simulator (or RunBatch) instead.
func Run(cfg Config) (*Result, error) {
	var sm Simulator
	return sm.Run(cfg)
}

// RunBatch executes the given runs concurrently on a bounded worker pool
// (clamped via pool.Workers; workers <= 0 selects one worker per runnable
// CPU) and returns their results in input order. Each worker owns one
// Simulator, so the batch amortizes scratch state exactly like a
// hand-rolled Simulator loop while exploiting every core. Every run is
// always executed; if any fail, the error of the lowest-indexed failing
// run is returned and the results of successful runs are still populated.
// Determinism: each run is independent and the output order is the input
// order, so the outcome is identical for every worker count.
func RunBatch(workers int, cfgs []Config) ([]*Result, error) {
	results := make([]*Result, len(cfgs))
	errs := make([]error, len(cfgs))
	pool.ForEach(workers, len(cfgs), func() func(int) {
		var sm Simulator
		return func(i int) { results[i], errs[i] = sm.Run(cfgs[i]) }
	})
	for i, err := range errs {
		if err != nil {
			return results, fmt.Errorf("sim: batch run %d: %w", i, err)
		}
	}
	return results, nil
}

// allAliveDecided reports whether every process that completed round k has
// decided.
func allAliveDecided(s *sched.Schedule, res *Result, k model.Round) bool {
	for i := range res.Decisions {
		p := model.ProcessID(i + 1)
		if !s.CompletesRound(p, k) {
			continue
		}
		if !res.Decisions[i].Decided() {
			return false
		}
	}
	return true
}
