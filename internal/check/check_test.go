package check

import (
	"errors"
	"strings"
	"testing"

	"indulgence/internal/model"
	"indulgence/internal/sim"
	"indulgence/internal/wire"
)

func result(decisions []sim.Decision, crashes []model.Round) *sim.Result {
	return &sim.Result{Decisions: decisions, CrashRounds: crashes}
}

func TestConsensusAllGood(t *testing.T) {
	res := result(
		[]sim.Decision{{Value: 1, Round: 3}, {Value: 1, Round: 3}, {Value: 1, Round: 4}},
		[]model.Round{0, 0, 0},
	)
	rep := Consensus(res, []model.Value{1, 2, 3})
	if !rep.OK() {
		t.Fatalf("violations: %v", rep.Violations)
	}
	if rep.GlobalDecisionRound != 4 {
		t.Fatalf("gdr = %d", rep.GlobalDecisionRound)
	}
	if rep.Err() != nil {
		t.Fatalf("Err() = %v", rep.Err())
	}
}

func TestConsensusValidity(t *testing.T) {
	res := result(
		[]sim.Decision{{Value: 9, Round: 1}, {Value: 9, Round: 1}},
		[]model.Round{0, 0},
	)
	rep := Consensus(res, []model.Value{1, 2})
	if rep.Validity {
		t.Fatal("unproposed decision accepted")
	}
	if err := rep.Err(); !errors.Is(err, ErrViolation) || !strings.Contains(err.Error(), "validity") {
		t.Fatalf("Err() = %v", err)
	}
}

func TestConsensusUniformAgreement(t *testing.T) {
	// The first decider crashed afterwards — uniform agreement still
	// counts its decision.
	res := result(
		[]sim.Decision{{Value: 1, Round: 2}, {Value: 2, Round: 3}},
		[]model.Round{5, 0},
	)
	rep := Consensus(res, []model.Value{1, 2})
	if rep.Agreement {
		t.Fatal("disagreement accepted")
	}
}

func TestConsensusTermination(t *testing.T) {
	res := result(
		[]sim.Decision{{Value: 1, Round: 2}, {}},
		[]model.Round{0, 0},
	)
	rep := Consensus(res, []model.Value{1, 2})
	if rep.Termination {
		t.Fatal("correct process never decided, termination should fail")
	}
	// A crashed process may stay undecided.
	res2 := result(
		[]sim.Decision{{Value: 1, Round: 2}, {}},
		[]model.Round{0, 1},
	)
	if rep := Consensus(res2, []model.Value{1, 2}); !rep.OK() {
		t.Fatalf("crashed non-decider flagged: %v", rep.Violations)
	}
}

func TestDecisionRounds(t *testing.T) {
	res := result(
		[]sim.Decision{{Value: 1, Round: 2}, {}, {Value: 1, Round: 5}},
		[]model.Round{0, 1, 0},
	)
	rounds := DecisionRounds(res)
	if rounds[0] != 2 || rounds[1] != 0 || rounds[2] != 5 {
		t.Fatalf("rounds = %v", rounds)
	}
	earliest, ok := EarliestDecisionRound(res)
	if !ok || earliest != 2 {
		t.Fatalf("earliest = %d, %v", earliest, ok)
	}
	none := result([]sim.Decision{{}}, []model.Round{0})
	if _, ok := EarliestDecisionRound(none); ok {
		t.Fatal("no decisions should report !ok")
	}
}

func TestInstance(t *testing.T) {
	props := []model.Value{1, 2, 3}
	ok := Instance(
		[]model.OptValue{model.Some(2), model.Some(2), model.Some(2)}, props, 0)
	if !ok.OK() || ok.Err() != nil {
		t.Fatalf("clean instance flagged: %+v", ok)
	}

	crashedOnly := Instance(
		[]model.OptValue{model.Some(1), model.Bottom(), model.Some(1)}, props,
		model.NewPIDSet(2))
	if !crashedOnly.OK() {
		t.Fatalf("crashed non-decider flagged: %+v", crashedOnly)
	}

	noTerm := Instance(
		[]model.OptValue{model.Some(1), model.Bottom(), model.Some(1)}, props, 0)
	if noTerm.Termination || noTerm.Validity != true || noTerm.Agreement != true {
		t.Fatalf("missing decider not flagged: %+v", noTerm)
	}

	split := Instance(
		[]model.OptValue{model.Some(1), model.Some(3)}, props, 0)
	if split.Agreement {
		t.Fatalf("split decision not flagged: %+v", split)
	}
	if !errors.Is(split.Err(), ErrViolation) {
		t.Fatalf("Err() = %v", split.Err())
	}

	invalid := Instance([]model.OptValue{model.Some(9)}, props, 0)
	if invalid.Validity {
		t.Fatalf("unproposed value not flagged: %+v", invalid)
	}
}

func TestReplayClean(t *testing.T) {
	records := []wire.DecisionRecord{
		{Instance: 0, Value: 5, Round: 3, Batch: 2},
		{Instance: 2, Value: 9, Round: 4, Batch: 1},
		{Instance: 1, Value: 7, Round: 3, Batch: 3},
		// A benign duplicate (same value): re-journaling a decision is
		// wasteful but not a violation.
		{Instance: 2, Value: 9, Round: 4, Batch: 1},
	}
	live := map[uint64]model.Value{0: 5, 2: 9}
	starts := []wire.StartRecord{
		// Tagged, untagged and duplicate-compatible claims are all clean.
		{Instance: 0, Alg: "A_f+2"},
		{Instance: 1},
		{Instance: 2, Alg: "A_t+2"},
		{Instance: 2, Alg: "A_t+2"},
		{Instance: 2},
	}
	rep := Replay(records, starts, live)
	if !rep.OK() {
		t.Fatalf("clean replay flagged: %+v", rep)
	}
	if rep.GlobalDecisionRound != 4 {
		t.Fatalf("global decision round = %d", rep.GlobalDecisionRound)
	}
	if empty := Replay(nil, nil, nil); !empty.OK() || empty.GlobalDecisionRound != 0 {
		t.Fatalf("empty replay = %+v", empty)
	}
}

func TestReplayJournalConflict(t *testing.T) {
	rep := Replay([]wire.DecisionRecord{
		{Instance: 3, Value: 1, Round: 3, Batch: 1},
		{Instance: 3, Value: 2, Round: 3, Batch: 1},
	}, nil, nil)
	if rep.Agreement {
		t.Fatalf("conflicting journal records not flagged: %+v", rep)
	}
	if !errors.Is(rep.Err(), ErrViolation) || !strings.Contains(rep.Err().Error(), "instance 3") {
		t.Fatalf("Err() = %v", rep.Err())
	}
}

func TestReplayLiveConflict(t *testing.T) {
	records := []wire.DecisionRecord{{Instance: 8, Value: 4, Round: 3, Batch: 2}}
	rep := Replay(records, nil, map[uint64]model.Value{8: 6})
	if rep.Agreement {
		t.Fatalf("journal/live split not flagged: %+v", rep)
	}
	// A live decision the journal never saw (its append was lost with
	// the crash window open... which Append's blocking prevents) is not
	// checkable here and must not be flagged.
	rep = Replay(records, nil, map[uint64]model.Value{9: 1})
	if !rep.OK() {
		t.Fatalf("unjournaled live instance flagged: %+v", rep)
	}
}

// TestReplayAlgorithmConflict pins the cross-lifetime exactness of the
// algorithm tag: one instance claimed under two different algorithms is
// an agreement violation (the frontier should have made a second launch
// impossible), while untagged claims stay compatible with everything.
func TestReplayAlgorithmConflict(t *testing.T) {
	rep := Replay(nil, []wire.StartRecord{
		{Instance: 4, Alg: "A_f+2"},
		{Instance: 4, Alg: "A_t+2"},
	}, nil)
	if rep.Agreement {
		t.Fatalf("conflicting algorithm claims not flagged: %+v", rep)
	}
	if !errors.Is(rep.Err(), ErrViolation) || !strings.Contains(rep.Err().Error(), "A_f+2") {
		t.Fatalf("Err() = %v", rep.Err())
	}
	clean := Replay(nil, []wire.StartRecord{
		{Instance: 4, Alg: "A_f+2"},
		{Instance: 4},
		{Instance: 5, Alg: "A_t+2"},
	}, nil)
	if !clean.OK() {
		t.Fatalf("compatible claims flagged: %+v", clean)
	}
}

// TestReplayGroupConflict pins the multi-group journal invariant: an
// instance ID claimed or decided under two different consensus groups
// is an agreement violation (the strided allocation makes the group ID
// spaces disjoint, so a cross-group instance means two groups ran the
// same ID), while a group's own claims and decisions stay compatible
// with each other.
func TestReplayGroupConflict(t *testing.T) {
	rep := Replay([]wire.DecisionRecord{
		{Instance: 5, Value: 1, Round: 3, Batch: 1, Group: 1},
		{Instance: 5, Value: 1, Round: 3, Batch: 1, Group: 3},
	}, nil, nil)
	if rep.Agreement {
		t.Fatalf("cross-group decisions not flagged: %+v", rep)
	}
	if !errors.Is(rep.Err(), ErrViolation) || !strings.Contains(rep.Err().Error(), "group 1") {
		t.Fatalf("Err() = %v", rep.Err())
	}

	// A claim and its decision under one group agree; a claim under
	// another group conflicts. Pre-group records (group 0) conflict with
	// grouped ones too — group 0 is a real group, the compatibility one.
	rep = Replay(
		[]wire.DecisionRecord{{Instance: 6, Value: 2, Round: 3, Batch: 1, Group: 2}},
		[]wire.StartRecord{{Instance: 6, Alg: "A_t+2", Group: 1}}, nil)
	if rep.Agreement {
		t.Fatalf("claim/decision group split not flagged: %+v", rep)
	}
	rep = Replay(
		[]wire.DecisionRecord{{Instance: 7, Value: 2, Round: 3, Batch: 1, Group: 2}},
		[]wire.StartRecord{{Instance: 7}}, nil)
	if rep.Agreement {
		t.Fatalf("legacy claim vs grouped decision not flagged: %+v", rep)
	}

	clean := Replay(
		[]wire.DecisionRecord{
			{Instance: 1, Value: 4, Round: 3, Batch: 1, Group: 1},
			{Instance: 2, Value: 5, Round: 3, Batch: 1, Group: 2},
			{Instance: 1, Value: 4, Round: 3, Batch: 1, Group: 1},
		},
		[]wire.StartRecord{
			{Instance: 1, Alg: "A_t+2", Group: 1},
			{Instance: 2, Alg: "A_t+2", Group: 2},
		},
		map[uint64]model.Value{1: 4, 2: 5})
	if !clean.OK() {
		t.Fatalf("disjoint group spaces flagged: %+v", clean)
	}
}

func TestReplayImpossibleRecord(t *testing.T) {
	rep := Replay([]wire.DecisionRecord{
		{Instance: 0, Value: 1, Round: 0, Batch: 1},
		{Instance: 1, Value: 1, Round: 3, Batch: 0},
	}, nil, nil)
	if rep.Validity {
		t.Fatalf("impossible records not flagged: %+v", rep)
	}
	if len(rep.Violations) != 2 {
		t.Fatalf("violations = %v", rep.Violations)
	}
}

// TestReplayClassConflict pins the SLO-class audit: an instance decided
// exactly once cannot legally be on record under two different classes,
// and a class outside wire's encodable range cannot have been written
// by a correct service. Same-class duplicates and classless (class 0)
// records stay clean.
func TestReplayClassConflict(t *testing.T) {
	rep := Replay([]wire.DecisionRecord{
		{Instance: 9, Value: 3, Round: 3, Batch: 1, Class: 2},
		{Instance: 9, Value: 3, Round: 3, Batch: 1, Class: 1},
	}, nil, nil)
	if rep.Agreement {
		t.Fatalf("cross-class duplicate not flagged: %+v", rep)
	}
	if !errors.Is(rep.Err(), ErrViolation) || !strings.Contains(rep.Err().Error(), "class 2") {
		t.Fatalf("Err() = %v", rep.Err())
	}

	rep = Replay([]wire.DecisionRecord{
		{Instance: 10, Value: 1, Round: 3, Batch: 1, Class: wire.MaxClassValue + 1},
	}, nil, nil)
	if rep.Validity {
		t.Fatalf("unencodable class not flagged: %+v", rep)
	}

	clean := Replay([]wire.DecisionRecord{
		{Instance: 11, Value: 6, Round: 3, Batch: 2, Class: 3},
		{Instance: 11, Value: 6, Round: 3, Batch: 2, Class: 3},
		{Instance: 12, Value: 7, Round: 3, Batch: 1},
		// One member initiated the slot at class 2, another joined it
		// with nothing classed aboard.
		{Instance: 13, Value: 8, Round: 3, Batch: 2, Class: 2},
		{Instance: 13, Value: 8, Round: 3, Batch: 1},
	}, nil, map[uint64]model.Value{11: 6, 12: 7, 13: 8})
	if !clean.OK() {
		t.Fatalf("same-class or classless duplicate flagged: %+v", clean)
	}
}
