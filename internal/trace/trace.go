// Package trace records complete runs of round-based algorithms: every
// payload sent, every message delivered, every crash and every decision,
// per process and per round. Traces power the consensus property checkers,
// the failure-detector property checkers, and — through per-process local
// histories and their digests — the indistinguishability comparisons at the
// heart of the paper's lower-bound argument (two runs are indistinguishable
// to a process up to round k iff its local history is identical in both).
package trace

import (
	"bytes"
	"crypto/sha256"
	"fmt"

	"indulgence/internal/model"
)

// Step records one round of one process's local history. A process has
// a step for each round it sends in: rounds 1, 2, … up to its crash
// round, its relay round (the round after its decision, whose step is
// its DECIDE relay) or the run's last round, whichever comes first.
type Step struct {
	// Round is the 1-based round number.
	Round model.Round
	// Sent is the payload broadcast in the send phase: the algorithm's
	// (nil if it sent a dummy), or DECIDE in the relay step.
	Sent model.Payload
	// Received holds the messages delivered in the receive phase, sorted
	// by (Round, From). Nil if the step does not complete.
	Received []model.Message
	// Completes reports whether the process completed the round
	// (executed the receive phase). A process does not complete its
	// crash round, nor its relay step: a decided process sends DECIDE
	// once and halts.
	Completes bool
}

// ProcessTrace is the full local history of one process in one run.
type ProcessTrace struct {
	// ID identifies the process.
	ID model.ProcessID
	// Proposal is the value the process proposed.
	Proposal model.Value
	// Steps holds one entry per round, Steps[r-1] for round r.
	Steps []Step
	// Decided is the decision, if the process decided.
	Decided model.OptValue
	// DecidedRound is the round at the end of which the process decided
	// (0 if it never decided).
	DecidedRound model.Round
	// CrashRound is the round in which the process crashed (0 if it never
	// crashed).
	CrashRound model.Round
}

// Correct reports whether the process never crashed in this run.
func (p *ProcessTrace) Correct() bool { return p.CrashRound == 0 }

// Run is the complete trace of one simulated run.
type Run struct {
	// N and T describe the system.
	N, T int
	// Synchrony is the model the run executed under.
	Synchrony model.Synchrony
	// Algorithm is the name of the algorithm executed.
	Algorithm string
	// GSR is the schedule's global stabilization round.
	GSR model.Round
	// Rounds is the number of rounds executed.
	Rounds model.Round
	// Procs holds one trace per process, Procs[id-1].
	Procs []ProcessTrace
}

// Proc returns the trace of process p.
func (r *Run) Proc(p model.ProcessID) *ProcessTrace { return &r.Procs[p-1] }

// GlobalDecisionRound returns the round at which the run achieves a global
// decision in the paper's sense (Sect. 1.3): the round k such that every
// process that ever decides does so at round ≤ k and at least one process
// decides at k. ok is false if no process ever decides.
func (r *Run) GlobalDecisionRound() (round model.Round, ok bool) {
	for i := range r.Procs {
		p := &r.Procs[i]
		if p.DecidedRound > 0 && p.DecidedRound > round {
			round, ok = p.DecidedRound, true
		}
	}
	return round, ok
}

// HistoryDigest returns a collision-resistant digest of process p's local
// history through the end of round upto: its proposal, every payload it
// sent and every message it received in rounds 1..upto. Two deterministic
// processes with equal digests are in identical states.
func (r *Run) HistoryDigest(p model.ProcessID, upto model.Round) [sha256.Size]byte {
	return sha256.Sum256(r.historyBytes(p, upto))
}

func (r *Run) historyBytes(p model.ProcessID, upto model.Round) []byte {
	pt := r.Proc(p)
	buf := model.AppendDigestInt(nil, int64(pt.ID))
	buf = model.AppendDigestInt(buf, int64(pt.Proposal))
	for i := 0; i < len(pt.Steps) && model.Round(i) < upto; i++ {
		st := &pt.Steps[i]
		buf = model.AppendDigestInt(buf, int64(st.Round))
		if st.Sent != nil {
			buf = model.AppendDigestString(buf, st.Sent.Kind())
			buf = st.Sent.AppendDigest(buf)
		} else {
			buf = model.AppendDigestString(buf, "")
		}
		buf = model.AppendDigestBool(buf, st.Completes)
		buf = model.AppendDigestInt(buf, int64(len(st.Received)))
		for _, m := range st.Received {
			buf = m.AppendDigest(buf)
		}
	}
	return buf
}

// Indistinguishable reports whether process p cannot distinguish runs a and
// b at the end of round upto: its proposal and its per-round sent payloads
// and receive sets are identical in both runs through round upto. This is
// the executable form of the view-equality arguments in the proof of
// Proposition 1 (Fig. 1).
func Indistinguishable(a, b *Run, p model.ProcessID, upto model.Round) bool {
	if a.N != b.N || int(p) < 1 || int(p) > a.N {
		return false
	}
	return bytes.Equal(a.historyBytes(p, upto), b.historyBytes(p, upto))
}

// String summarizes the run.
func (r *Run) String() string {
	gdr, ok := r.GlobalDecisionRound()
	if !ok {
		return fmt.Sprintf("run{%s %s n=%d t=%d rounds=%d undecided}", r.Algorithm, r.Synchrony, r.N, r.T, r.Rounds)
	}
	return fmt.Sprintf("run{%s %s n=%d t=%d rounds=%d global-decision=%d}", r.Algorithm, r.Synchrony, r.N, r.T, r.Rounds, gdr)
}
