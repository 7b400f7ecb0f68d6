package payload

import "indulgence/internal/model"

// Inbox assembles one process's receive sets, one round at a time, under
// the ES round model: the round-k receive set holds at most one round-k
// message per sender, plus every message of an earlier round delivered
// during round k (a delayed or late one). A message of a later round is
// held until its round begins, and then counts like any other round-k
// message. The lockstep simulator and the live node both assemble every
// receive set here, so the rule the explorer proves is the rule the live
// stack runs.
//
// The zero value is ready to use. An Inbox is not safe for concurrent use.
type Inbox struct {
	round  model.Round
	heard  model.PIDSet    // senders of the round-k messages in set
	decide bool            // set holds a DECIDE
	set    []model.Message // the receive set: round-k and earlier messages
	future []model.Message // messages of rounds after round, held
}

// Begin starts round k's receive set, sized for a message from each of n
// processes. It holds the round-k messages that arrived early, once per
// sender; later rounds' messages stay held. The previous set, and the
// slice Take returned for it, are reused.
func (in *Inbox) Begin(k model.Round, n int) {
	in.round, in.heard, in.decide = k, 0, false
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

// Add delivers m during the current round. A round-k message joins the
// set unless its sender's already has, an earlier round's always joins,
// and a later round's is held for its round.
func (in *Inbox) Add(m model.Message) {
	switch {
	case m.Round > in.round:
		in.future = append(in.future, m)
		return
	case m.Round == in.round:
		if in.heard.Has(m.From) {
			return
		}
		in.heard.Add(m.From)
	}
	in.set = append(in.set, m)
	if _, ok := m.Payload.(Decide); ok {
		in.decide = true
	}
}

// Heard returns the senders of the round-k messages in the set.
func (in *Inbox) Heard() model.PIDSet { return in.heard }

// Decide reports whether the set holds a DECIDE of any round up to the
// current one.
func (in *Inbox) Decide() bool { return in.decide }

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
