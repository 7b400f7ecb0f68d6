package trace

import (
	"testing"

	"indulgence/internal/model"
	"indulgence/internal/payload"
)

// mkRun builds a two-process run with the given per-round sent estimates
// and full receive sets.
func mkRun(perRound [][2]model.Value) *Run {
	run := &Run{
		N: 2, T: 0, Synchrony: model.ES, Algorithm: "test", GSR: 1,
		Rounds: model.Round(len(perRound)),
		Procs: []ProcessTrace{
			{ID: 1, Proposal: 10},
			{ID: 2, Proposal: 20},
		},
	}
	for r, ests := range perRound {
		round := model.Round(r + 1)
		msgs := []model.Message{
			{From: 1, Round: round, Payload: payload.Estimate{Est: ests[0]}},
			{From: 2, Round: round, Payload: payload.Estimate{Est: ests[1]}},
		}
		for i := 0; i < 2; i++ {
			run.Procs[i].Steps = append(run.Procs[i].Steps, Step{
				Round:     round,
				Sent:      payload.Estimate{Est: ests[i]},
				Received:  msgs,
				Completes: true,
			})
		}
	}
	return run
}

func TestGlobalDecisionRound(t *testing.T) {
	run := mkRun([][2]model.Value{{1, 2}, {1, 1}})
	if _, ok := run.GlobalDecisionRound(); ok {
		t.Fatal("no decisions yet")
	}
	run.Procs[0].Decided = model.Some(1)
	run.Procs[0].DecidedRound = 2
	run.Procs[1].Decided = model.Some(1)
	run.Procs[1].DecidedRound = 3
	gdr, ok := run.GlobalDecisionRound()
	if !ok || gdr != 3 {
		t.Fatalf("gdr = %d, %v", gdr, ok)
	}
}

func TestHistoryDigestSensitivity(t *testing.T) {
	a := mkRun([][2]model.Value{{1, 2}, {1, 1}})
	b := mkRun([][2]model.Value{{1, 2}, {1, 1}})
	if a.HistoryDigest(1, 2) != b.HistoryDigest(1, 2) {
		t.Fatal("identical runs must share digests")
	}
	// Change round 2 only: digests agree up to round 1, differ at 2.
	c := mkRun([][2]model.Value{{1, 2}, {3, 1}})
	if a.HistoryDigest(1, 1) != c.HistoryDigest(1, 1) {
		t.Fatal("round-1 digest should be unaffected by round-2 changes")
	}
	if a.HistoryDigest(1, 2) == c.HistoryDigest(1, 2) {
		t.Fatal("digest insensitive to received payload change")
	}
	// Proposal changes are visible.
	d := mkRun([][2]model.Value{{1, 2}, {1, 1}})
	d.Procs[0].Proposal = 99
	if a.HistoryDigest(1, 0) == d.HistoryDigest(1, 0) {
		t.Fatal("digest insensitive to proposal")
	}
}

func TestIndistinguishable(t *testing.T) {
	a := mkRun([][2]model.Value{{1, 2}, {1, 1}})
	b := mkRun([][2]model.Value{{1, 2}, {9, 9}})
	if !Indistinguishable(a, b, 1, 1) {
		t.Fatal("views should agree through round 1")
	}
	if Indistinguishable(a, b, 1, 2) {
		t.Fatal("views should differ at round 2")
	}
	// Out-of-range process.
	if Indistinguishable(a, b, 5, 1) {
		t.Fatal("unknown process cannot be indistinguishable")
	}
	// Different system sizes.
	c := &Run{N: 3, Procs: make([]ProcessTrace, 3)}
	if Indistinguishable(a, c, 1, 1) {
		t.Fatal("different systems cannot be compared")
	}
}

func TestIndistinguishableCrashedSteps(t *testing.T) {
	a := mkRun([][2]model.Value{{1, 2}})
	b := mkRun([][2]model.Value{{1, 2}})
	// In run b, p2 crashed mid-round 1 (sends but does not complete).
	b.Procs[1].Steps[0].Completes = false
	b.Procs[1].Steps[0].Received = nil
	b.Procs[1].CrashRound = 1
	if Indistinguishable(a, b, 2, 1) {
		t.Fatal("completing vs crashing views must differ")
	}
	if !Indistinguishable(a, b, 1, 1) {
		t.Fatal("p1's view is unaffected")
	}
}

func TestRunString(t *testing.T) {
	run := mkRun([][2]model.Value{{1, 2}})
	if s := run.String(); s == "" {
		t.Fatal("empty String()")
	}
	run.Procs[0].Decided = model.Some(1)
	run.Procs[0].DecidedRound = 1
	if s := run.String(); s == "" {
		t.Fatal("empty String() with decision")
	}
}
