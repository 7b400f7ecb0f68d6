package payload

import "indulgence/internal/model"

// Inbox assembles one process's receive sets, one round at a time, under
// the ES round model: the round-k receive set holds every message of
// round k or earlier delivered during round k, at most one per sender and
// send round — a second copy of a message already delivered, in this
// round or an earlier one, is dropped. A message of a later round is held
// until its round begins, and then counts like any other round-k message.
// The lockstep simulator and the live node both assemble every receive set
// here, so the rule the explorer proves is the rule the live stack runs.
//
// An Inbox also reports the DECIDE the set holds, which both round
// engines act on for the algorithm: a process whose receive set holds a
// DECIDE decides its value.
//
// Messages must come from senders in 1..n with rounds of at least 1. The
// zero value is ready to use. An Inbox is not safe for concurrent use.
type Inbox struct {
	round model.Round
	// The senders of the round-r messages delivered so far: heard[r-1]
	// for the first rounds, which are all most runs take, so a fresh
	// Inbox allocates no history; heardLater for the rounds after them.
	heard      [8]model.PIDSet
	heardLater []model.PIDSet
	decided    model.OptValue  // the smallest DECIDE value in set
	set        []model.Message // the receive set: round-k and earlier messages
	future     []model.Message // messages of rounds after round, held
}

// Begin starts round k's receive set, sized for a message from each of n
// processes. It holds the round-k messages that arrived early, once per
// sender; later rounds' messages stay held. Begin(1) starts a new run and
// forgets every sender delivered before. The previous set, and the slice
// Take returned for it, are reused.
func (in *Inbox) Begin(k model.Round, n int) {
	in.round, in.decided = k, model.Bottom()
	if k == 1 {
		in.heard, in.heardLater = [len(in.heard)]model.PIDSet{}, in.heardLater[:0]
	}
	for int(k) > len(in.heard)+len(in.heardLater) {
		in.heardLater = append(in.heardLater, 0)
	}
	if cap(in.set) < n {
		in.set = make([]model.Message, 0, n)
	}
	in.set = in.set[:0]
	// Add re-holds a later round's message at an index no greater than
	// the one being read, so the held list filters in place.
	held := in.future
	in.future = in.future[:0]
	for _, m := range held {
		in.Add(m)
	}
}

// Add delivers m during the current round. A message of this round or an
// earlier one joins the set unless a copy of it already has, and a later
// round's is held for its round.
func (in *Inbox) Add(m model.Message) {
	if m.Round > in.round {
		in.future = append(in.future, m)
		return
	}
	heard := in.senders(m.Round)
	if heard.Has(m.From) {
		return
	}
	heard.Add(m.From)
	in.set = append(in.set, m)
	if d, ok := m.Payload.(Decide); ok {
		if v, some := in.decided.Get(); !some || d.V < v {
			in.decided = model.Some(d.V)
		}
	}
}

// senders returns the senders of the round-r messages delivered so far.
func (in *Inbox) senders(r model.Round) *model.PIDSet {
	if int(r) <= len(in.heard) {
		return &in.heard[r-1]
	}
	return &in.heardLater[int(r)-len(in.heard)-1]
}

// Heard returns the senders of the round-k messages in the set.
func (in *Inbox) Heard() model.PIDSet { return *in.senders(in.round) }

// Decided returns the smallest value of the DECIDE messages in the set,
// of any round up to the current one, and whether it holds one. By
// uniform agreement every DECIDE carries the same value, so the minimum
// is only a deterministic choice.
func (in *Inbox) Decided() (model.Value, bool) { return in.decided.Get() }

// Take returns the receive set ordered by (Round, From), the order the
// Algorithm contract promises EndRound. The slice is the Inbox's own and
// is valid until the next Begin. The sort is an insertion sort: a set
// holds a few rounds of at most n messages each, mostly in order already.
func (in *Inbox) Take() []model.Message {
	msgs := in.set
	for i := 1; i < len(msgs); i++ {
		m := msgs[i]
		j := i
		for ; j > 0 && (m.Round < msgs[j-1].Round ||
			m.Round == msgs[j-1].Round && m.From < msgs[j-1].From); j-- {
			msgs[j] = msgs[j-1]
		}
		msgs[j] = m
	}
	return msgs
}
