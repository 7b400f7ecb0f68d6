// Package fd implements the failure-detector machinery of Sect. 4 of the
// paper. In the round-based eventually synchronous model ES, an unreliable
// failure detector is *simulated* from receipt patterns: after receiving
// the messages of round k, the simulated output at a process is the set of
// processes from which no round-k message was received in round k. The
// package provides this simulation over recorded runs, property checkers
// for the ◇P and ◇S axioms (strong completeness, eventual strong/weak
// accuracy), and the Ω leader simulation of footnote 10 (minimum identity
// among the senders heard in the current round). A timeout-based detector
// for the live runtime lives in timeout.go.
package fd

import (
	"errors"
	"fmt"

	"indulgence/internal/model"
	"indulgence/internal/trace"
)

// Suspected returns the simulated failure-detector output after the
// receive phase of round k in a system of n processes: the set of
// processes from which none of the delivered messages is a round-k
// message. It is the helper every round-based algorithm in this repository
// uses to compute its suspicions (a process never suspects itself by
// construction, since self-delivery is always in-round).
func Suspected(n int, k model.Round, delivered []model.Message) model.PIDSet {
	heard := HeardInRound(k, delivered)
	return model.FullPIDSet(n).Diff(heard)
}

// HeardInRound returns the senders of the round-k messages among delivered.
func HeardInRound(k model.Round, delivered []model.Message) model.PIDSet {
	var heard model.PIDSet
	for _, m := range delivered {
		if m.Round == k {
			heard.Add(m.From)
		}
	}
	return heard
}

// Leader returns the Ω output simulated per footnote 10 of the paper: the
// minimum process identity among the senders of round-k messages, or 0 if
// none were received (impossible under t-resilience, since a process always
// hears itself).
func Leader(k model.Round, delivered []model.Message) model.ProcessID {
	heard := HeardInRound(k, delivered)
	members := heard.Members()
	if len(members) == 0 {
		return 0
	}
	return members[0]
}

// Output is the simulated failure-detector history of one run: for every
// process p and round k it has a reading for, Suspects[p-1][k-1] is the
// set of processes p suspected in round k. Rounds without a reading hold
// the empty set and are not flagged in Completed.
type Output struct {
	// N is the system size.
	N int
	// Suspects[p-1][k-1] is p's simulated FD output after round k.
	Suspects [][]model.PIDSet
	// Completed[p-1][k-1] reports whether p has a reading for round k: it
	// completed round k, and k is before its decision round.
	Completed [][]bool
}

// Simulate computes the Sect. 4 simulated failure-detector history of a
// recorded run. A process's detector is read only in the rounds before
// its own decision round. A decided process relays DECIDE once and halts,
// so from the round after its relay it is silent, as a crashed one is,
// and a receipt-based detector cannot tell the two apart: a receiver
// whose copy of the relay is delayed suspects the halted, correct sender,
// and it may decide, on another DECIDE, in the very round of that
// suspicion. The rule drops that decision-round reading. It does not
// drop the readings of a receiver that stays undecided at or after the
// GSR while such a relay is still in flight; those still suspect the
// halted sender.
func Simulate(run *trace.Run) *Output {
	out := &Output{
		N:         run.N,
		Suspects:  make([][]model.PIDSet, run.N),
		Completed: make([][]bool, run.N),
	}
	for i := range run.Procs {
		pt := &run.Procs[i]
		out.Suspects[i] = make([]model.PIDSet, run.Rounds)
		out.Completed[i] = make([]bool, run.Rounds)
		for _, st := range pt.Steps {
			if !st.Completes || st.Round > run.Rounds || (pt.DecidedRound > 0 && st.Round >= pt.DecidedRound) {
				continue
			}
			out.Completed[i][st.Round-1] = true
			out.Suspects[i][st.Round-1] = Suspected(run.N, st.Round, st.Received)
		}
	}
	return out
}

// Property-checking errors.
var (
	// ErrCompleteness reports a strong-completeness violation: a crashed
	// process was not permanently suspected by some correct process after
	// the stabilized suffix.
	ErrCompleteness = errors.New("fd: strong completeness violated")
	// ErrStrongAccuracy reports an eventual-strong-accuracy violation: a
	// correct process was suspected by a correct process after the
	// stabilized suffix.
	ErrStrongAccuracy = errors.New("fd: eventual strong accuracy violated")
	// ErrWeakAccuracy reports an eventual-weak-accuracy violation: no
	// correct process goes permanently unsuspected by all correct
	// processes after the stabilized suffix.
	ErrWeakAccuracy = errors.New("fd: eventual weak accuracy violated")
)

// stableFrom returns the first round from which the run is "stabilized"
// for FD purposes: at or after the GSR and strictly after every crash, so
// that post-suffix suspicions must exactly match the crashed set.
func stableFrom(run *trace.Run) model.Round {
	k := run.GSR
	for i := range run.Procs {
		if cr := run.Procs[i].CrashRound; cr > 0 && cr+1 > k {
			k = cr + 1
		}
	}
	return k
}

// CheckDiamondP verifies that the simulated output satisfies the ◇P axioms
// on this run: from the stabilized suffix on, every correct process
// suspects exactly the crashed processes (strong completeness + eventual
// strong accuracy). The paper's Sect. 4 argues precisely this for the
// ES simulation.
func CheckDiamondP(run *trace.Run, out *Output) error {
	from := stableFrom(run)
	crashed := model.FullPIDSet(run.N).Diff(correctSet(run))
	for i := range run.Procs {
		if !run.Procs[i].Correct() {
			continue
		}
		for k := from; k <= run.Rounds; k++ {
			if !out.Completed[i][k-1] {
				continue
			}
			sus := out.Suspects[i][k-1]
			if missing := crashed.Diff(sus); !missing.IsEmpty() {
				return fmt.Errorf("%w: p%d does not suspect crashed %v in round %d",
					ErrCompleteness, i+1, missing, k)
			}
			if extra := sus.Diff(crashed); !extra.IsEmpty() {
				return fmt.Errorf("%w: p%d suspects correct %v in round %d",
					ErrStrongAccuracy, i+1, extra, k)
			}
		}
	}
	return nil
}

// CheckDiamondS verifies the ◇S axioms on this run: strong completeness
// (as for ◇P) plus eventual weak accuracy — some correct process is never
// suspected by any correct process from the stabilized suffix on.
func CheckDiamondS(run *trace.Run, out *Output) error {
	from := stableFrom(run)
	crashed := model.FullPIDSet(run.N).Diff(correctSet(run))
	candidates := correctSet(run)
	for i := range run.Procs {
		if !run.Procs[i].Correct() {
			continue
		}
		for k := from; k <= run.Rounds; k++ {
			if !out.Completed[i][k-1] {
				continue
			}
			sus := out.Suspects[i][k-1]
			if missing := crashed.Diff(sus); !missing.IsEmpty() {
				return fmt.Errorf("%w: p%d does not suspect crashed %v in round %d",
					ErrCompleteness, i+1, missing, k)
			}
			candidates = candidates.Diff(sus)
		}
	}
	if candidates.IsEmpty() {
		return fmt.Errorf("%w: every correct process is suspected after round %d", ErrWeakAccuracy, from-1)
	}
	return nil
}

func correctSet(run *trace.Run) model.PIDSet {
	var set model.PIDSet
	for i := range run.Procs {
		if run.Procs[i].Correct() {
			set.Add(run.Procs[i].ID)
		}
	}
	return set
}
