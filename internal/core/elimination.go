package core

import (
	"errors"
	"fmt"

	"indulgence/internal/fd"
	"indulgence/internal/model"
	"indulgence/internal/payload"
	"indulgence/internal/trace"
)

// This file mechanizes the elimination-property apparatus of Sect. 3.3–3.4
// (Lemmas 6–13) as checkers over recorded runs. The Phase-1 state of every
// process is *replayed independently* from its recorded receive sets —
// duplicating the compute() rules on purpose, so the checkers do not trust
// the algorithm implementation they verify.

// Checker errors.
var (
	// ErrElimination reports a violation of Lemma 6: two NEWESTIMATE
	// messages carried distinct non-⊥ new estimates.
	ErrElimination = errors.New("core: elimination property violated")
	// ErrHaltClaim reports a violation of Claim 13.1: in a synchronous
	// run, a process that completed round t+1 was in some Halt set.
	ErrHaltClaim = errors.New("core: synchronous-run Halt claim violated")
)

// Phase1Snapshot is the replayed state of one process at the end of one
// Phase-1 round.
type Phase1Snapshot struct {
	// Round is the 1-based round.
	Round model.Round
	// Est is the estimate after compute() (est_i[k] in the paper).
	Est model.Value
	// Halt is the Halt set after compute() (Halt_i[k]).
	Halt model.PIDSet
	// Completed reports whether the process completed the round; when
	// false the paper's est_i[k] is "undefined" and Est/Halt are the last
	// defined values.
	Completed bool
}

// ReplayPhase1 recomputes process p's Phase-1 evolution (rounds 1..t+1)
// from the recorded run, applying the Fig. 2 compute() rules to the
// recorded receive sets. The returned slice has one snapshot per round
// 1..t+1.
func ReplayPhase1(run *trace.Run, p model.ProcessID) []Phase1Snapshot {
	pt := run.Proc(p)
	p1 := run.T + 1
	est := pt.Proposal
	var halt model.PIDSet
	out := make([]Phase1Snapshot, 0, p1)
	for k := model.Round(1); int(k) <= p1; k++ {
		snap := Phase1Snapshot{Round: k, Est: est, Halt: halt}
		if int(k) > len(pt.Steps) || !pt.Steps[k-1].Completes {
			out = append(out, snap)
			continue
		}
		delivered := pt.Steps[k-1].Received
		roundMsgs := payload.OfRound(k, delivered)
		halt = halt.Union(fd.Suspected(run.N, k, delivered))
		for _, m := range roundMsgs {
			eh, ok := m.Payload.(payload.EstHalt)
			if !ok {
				continue
			}
			if eh.Halt.Has(p) {
				halt.Add(m.From)
			}
		}
		for _, m := range roundMsgs {
			eh, ok := m.Payload.(payload.EstHalt)
			if !ok || halt.Has(m.From) {
				continue
			}
			if eh.Est < est {
				est = eh.Est
			}
		}
		snap.Est, snap.Halt, snap.Completed = est, halt, true
		out = append(out, snap)
	}
	return out
}

// SentNewEstimates extracts the nE values actually broadcast in round t+2,
// per sender (only processes that sent a NEWESTIMATE message appear).
func SentNewEstimates(run *trace.Run) map[model.ProcessID]model.OptValue {
	out := make(map[model.ProcessID]model.OptValue)
	round := model.Round(run.T + 2)
	for i := range run.Procs {
		pt := &run.Procs[i]
		if int(round) > len(pt.Steps) {
			continue
		}
		ne, ok := pt.Steps[round-1].Sent.(payload.NewEstimate)
		if !ok {
			continue
		}
		out[pt.ID] = ne.NE
	}
	return out
}

// CheckElimination verifies Lemma 6 on a recorded A_{t+2} run: among all
// NEWESTIMATE messages sent in round t+2, there is at most one distinct
// non-⊥ value.
func CheckElimination(run *trace.Run) error {
	var (
		seen  model.Value
		found bool
	)
	for p, ne := range SentNewEstimates(run) {
		v, some := ne.Get()
		if !some {
			continue
		}
		if !found {
			seen, found = v, true
			continue
		}
		if v != seen {
			return fmt.Errorf("%w: p%d sent nE=%d while another process sent nE=%d", ErrElimination, p, v, seen)
		}
	}
	return nil
}

// CSets computes the sets C_0..C_{t+1} of the Lemma 6 proof for threshold
// c: C_0 is the set of processes proposing at most c, and C_k the set of
// processes that either crashed before completing round k or completed it
// with est ≤ c. The proof shows C_k grows by at least one process per
// round in any run where two processes send distinct non-⊥ new estimates;
// the tests verify the monotonicity (Observation O2) on real runs.
func CSets(run *trace.Run, c model.Value) []model.PIDSet {
	p1 := run.T + 1
	out := make([]model.PIDSet, p1+1)
	for i := range run.Procs {
		pt := &run.Procs[i]
		if pt.Proposal <= c {
			out[0].Add(pt.ID)
		}
		snaps := ReplayPhase1(run, pt.ID)
		for k := 1; k <= p1; k++ {
			snap := snaps[k-1]
			if !snap.Completed || snap.Est <= c {
				out[k].Add(pt.ID)
			}
		}
	}
	return out
}

// CheckSynchronousHalt verifies Claim 13.1 on a synchronous run: if any
// process appears in some Halt set at the end of round t+1, it crashed
// before completing round t+1. Together with |Halt| ≤ t it yields the
// paper's fast-decision property (Lemma 13).
func CheckSynchronousHalt(run *trace.Run) error {
	if run.GSR != 1 {
		return fmt.Errorf("core: CheckSynchronousHalt requires a synchronous run, GSR=%d", run.GSR)
	}
	last := model.Round(run.T + 1)
	var h model.PIDSet
	for i := range run.Procs {
		snaps := ReplayPhase1(run, run.Procs[i].ID)
		if snap := snaps[last-1]; snap.Completed {
			h = h.Union(snap.Halt)
		}
	}
	for _, p := range h.Members() {
		pt := run.Proc(p)
		completes := int(last) <= len(pt.Steps) && pt.Steps[last-1].Completes
		if completes {
			return fmt.Errorf("%w: p%d completed round %d yet is in H[%d]", ErrHaltClaim, p, last, last)
		}
	}
	return nil
}
