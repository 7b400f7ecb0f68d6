package adapt

import (
	"fmt"

	"indulgence/internal/core"
)

// Outcome is what the service reports about one finished instance — the
// selector's entire view of the world.
type Outcome struct {
	// Failed reports a missed decision: the instance timed out or
	// errored without deciding.
	Failed bool
	// Suspicions sums two counts over the instance's nodes (see
	// runtime.NodeResult.Suspicions): the trusted-to-suspected
	// transitions they raised, and the peers their process's detector
	// still suspected when they halted. The detectors are shared by every
	// instance a process runs, so a standing suspicion — a crashed peer,
	// or a stale false one — raises no new transition; the second term
	// keeps it visible, and the ladder off its fast rung, for as long as
	// it stands. 0 in a synchronous trusted run.
	Suspicions int
}

// Selector is the per-instance algorithm policy: a three-level ladder
// ordered fast → guarded → safe.
//
//	level 0 (fast):    A_f+2 when t < n/3 permits it (the paper's fast
//	                   eventually deciding algorithm, decides in f+2
//	                   rounds under synchrony), else A_t+2 with the
//	                   Fig. 4 failure-free fast path.
//	level 1 (guarded): A_◇S under the wait-quorum (◇S) discipline —
//	                   still fast under synchrony, but never waits on a
//	                   suspected process.
//	level 2 (safe):    A_t+2 under wait-unsuspected — the indulgent
//	                   worst-case-optimal baseline.
//
// Transitions, exactly (the scripted ladder tests pin these):
//
//   - a failed instance drops straight to safe;
//   - an instance that decided but observed suspicions drops one level;
//   - a clean decision (no suspicions) extends the clean streak, and
//     ClimbAfter consecutive clean decisions climb one level toward
//     fast, resetting the streak.
//
// Like the Controller, the Selector is a pure state machine over
// reported outcomes. Not safe for concurrent use; the Plane serializes
// access.
type Selector struct {
	ladder     []Choice
	level      int
	streak     int
	climbAfter int
}

// NewSelector builds the ladder for an (n, t) system. The fast level is
// A_f+2 only when its t < n/3 resilience requirement holds; otherwise
// the failure-free-fast A_t+2 variant takes that rung, so the ladder is
// well-formed for every t < n/2 system the service accepts.
func NewSelector(n, t, climbAfter int) *Selector {
	if climbAfter <= 0 {
		climbAfter = 8
	}
	fast := rung("afplus2", core.AfPlus2Name)
	if 3*t >= n {
		fast = rung("atplus2ff", core.AtPlus2Name+"+ff")
	}
	return &Selector{
		ladder: []Choice{
			fast,
			rung("diamonds", core.DiamondSName),
			rung("atplus2", core.AtPlus2Name),
		},
		climbAfter: climbAfter,
	}
}

// rung builds the ladder rung for one of core.ByName's algorithms —
// factory and receive discipline come paired from there — under the
// name its start claims are journaled with.
func rung(algo, name string) Choice {
	factory, wait, err := core.ByName(algo)
	if err != nil {
		panic(err) // algo is a constant of NewSelector
	}
	return Choice{Name: name, Factory: factory, WaitPolicy: wait}
}

// Pick returns the current level's choice.
func (s *Selector) Pick() Choice { return s.ladder[s.level] }

// Level returns the current ladder level (0 = fast).
func (s *Selector) Level() int { return s.level }

// Rungs returns the ladder's algorithm names in ladder order (fast
// first) — the choice set a decision-trace record enumerates.
func (s *Selector) Rungs() []string {
	names := make([]string, len(s.ladder))
	for i, c := range s.ladder {
		names[i] = c.Name
	}
	return names
}

// Report folds one instance outcome into the ladder state and returns
// a human-readable transition description ("" when the level held).
func (s *Selector) Report(o Outcome) string {
	from := s.level
	switch {
	case o.Failed:
		s.level = len(s.ladder) - 1
		s.streak = 0
	case o.Suspicions > 0:
		if s.level < len(s.ladder)-1 {
			s.level++
		}
		s.streak = 0
	default:
		s.streak++
		if s.streak >= s.climbAfter && s.level > 0 {
			s.level--
			s.streak = 0
		}
	}
	if s.level == from {
		return ""
	}
	return fmt.Sprintf("%s -> %s", s.ladder[from].Name, s.ladder[s.level].Name)
}
