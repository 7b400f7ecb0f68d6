package payload

import (
	"reflect"
	"testing"

	"indulgence/internal/model"
)

func inboxMsg(from model.ProcessID, r model.Round) model.Message {
	return model.Message{From: from, Round: r, Payload: Estimate{Est: model.Value(10*int(r) + int(from))}}
}

// TestInboxRule walks one inbox through three rounds: a round-k message
// counts once per sender, an earlier round's joins unless a copy of it
// already has, a later round's is held and then deduplicated like a
// round-k one, Take orders the set by (Round, From), and Decided reports
// the smallest DECIDE of any round in the set.
func TestInboxRule(t *testing.T) {
	var in Inbox
	in.Begin(1, 4)
	for _, m := range []model.Message{
		inboxMsg(3, 1), inboxMsg(1, 1), inboxMsg(3, 1), // p3 counted once
		inboxMsg(2, 2), inboxMsg(2, 2), inboxMsg(4, 3), // held for rounds 2 and 3
	} {
		in.Add(m)
	}
	if got, want := in.Heard(), model.NewPIDSet(1, 3); got != want {
		t.Fatalf("round 1 heard %v, want %v", got, want)
	}
	if got, want := in.Take(), []model.Message{inboxMsg(1, 1), inboxMsg(3, 1)}; !reflect.DeepEqual(got, want) {
		t.Fatalf("round 1 set %v, want %v", got, want)
	}

	in.Begin(2, 4)
	if got, want := in.Heard(), model.NewPIDSet(2); got != want {
		t.Fatalf("round 2 heard %v from its held messages, want %v", got, want)
	}
	in.Add(inboxMsg(4, 1)) // late
	in.Add(inboxMsg(1, 2))
	in.Add(inboxMsg(2, 2)) // a third copy of p2's
	if _, ok := in.Decided(); ok {
		t.Fatal("round 2 reports a DECIDE it does not hold")
	}
	want := []model.Message{inboxMsg(4, 1), inboxMsg(1, 2), inboxMsg(2, 2)}
	if got := in.Take(); !reflect.DeepEqual(got, want) {
		t.Fatalf("round 2 set %v, want %v", got, want)
	}

	in.Begin(3, 4)
	lateDecide := model.Message{From: 3, Round: 2, Payload: Decide{V: 7}}
	in.Add(lateDecide)
	if v, ok := in.Decided(); !ok || v != 7 {
		t.Fatalf("round 3 reports DECIDE %d, %v; want its late DECIDE(7)", v, ok)
	}
	want = []model.Message{lateDecide, inboxMsg(4, 3)}
	if got := in.Take(); !reflect.DeepEqual(got, want) {
		t.Fatalf("round 3 set %v, want %v", got, want)
	}
	in.Begin(4, 4)
	if _, ok := in.Decided(); ok || in.Heard() != 0 || len(in.Take()) != 0 {
		t.Fatal("round 4 starts with round 3's state")
	}
}

// TestInboxDecidedIsSmallest: of the DECIDEs a set holds, whatever their
// rounds and arrival order, Decided reports the smallest value.
func TestInboxDecidedIsSmallest(t *testing.T) {
	var in Inbox
	in.Begin(1, 3)
	in.Begin(2, 3)
	in.Begin(3, 3)
	for _, m := range []model.Message{
		{From: 1, Round: 1, Payload: Estimate{Est: 9}},
		{From: 2, Round: 3, Payload: Decide{V: 5}},
		{From: 3, Round: 2, Payload: Decide{V: 4}},
	} {
		in.Add(m)
	}
	if v, ok := in.Decided(); !ok || v != 4 {
		t.Fatalf("Decided = %d, %v; want the smaller DECIDE 4", v, ok)
	}
}

// TestInboxDropsLateDuplicates: a second copy of a message the inbox
// delivered in an earlier round does not join a later round's set, while
// a first delivery of the same round does. Begin(1) forgets every sender.
func TestInboxDropsLateDuplicates(t *testing.T) {
	var in Inbox
	in.Begin(1, 3)
	in.Add(inboxMsg(1, 1))
	in.Take()
	in.Begin(2, 3)
	in.Add(inboxMsg(1, 1)) // duplicate of round 1's
	in.Add(inboxMsg(2, 1)) // late, first copy
	in.Add(inboxMsg(2, 1)) // and its duplicate
	if got, want := in.Take(), []model.Message{inboxMsg(2, 1)}; !reflect.DeepEqual(got, want) {
		t.Fatalf("round 2 set %v, want %v", got, want)
	}
	in.Begin(1, 3)
	in.Add(inboxMsg(1, 1))
	if got, want := in.Take(), []model.Message{inboxMsg(1, 1)}; !reflect.DeepEqual(got, want) {
		t.Fatalf("a new run's round 1 set %v, want %v", got, want)
	}

	// Past the first rounds the history lives elsewhere; the rule holds.
	for k := model.Round(2); k <= 12; k++ {
		in.Begin(k, 3)
		in.Add(inboxMsg(1, k))
	}
	in.Add(inboxMsg(1, 11)) // duplicates of rounds 11 and 2
	in.Add(inboxMsg(1, 2))
	in.Add(inboxMsg(2, 11)) // late, first copy
	if got, want := in.Take(), []model.Message{inboxMsg(2, 11), inboxMsg(1, 12)}; !reflect.DeepEqual(got, want) {
		t.Fatalf("round 12 set %v, want %v", got, want)
	}
}

// TestInboxReusesStorage: once an inbox has held a round of n messages,
// later rounds of the same shape allocate nothing.
func TestInboxReusesStorage(t *testing.T) {
	const n = 5
	var (
		in Inbox
		k  model.Round
	)
	est := model.Payload(Estimate{Est: 1})
	round := func() {
		k++
		in.Begin(k, n)
		for p := model.ProcessID(n); p >= 1; p-- {
			in.Add(model.Message{From: p, Round: k, Payload: est})
		}
		in.Add(model.Message{From: 1, Round: k + 1, Payload: est})
		if len(in.Take()) != n {
			t.Fatal("short receive set")
		}
	}
	round()
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Fatalf("%v allocations per round, want 0", allocs)
	}
}
