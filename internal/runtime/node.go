package runtime

import (
	"bytes"
	"context"
	"sync"

	"indulgence/internal/chaos/clock"
	"indulgence/internal/core"
	"indulgence/internal/fd"
	"indulgence/internal/model"
	"indulgence/internal/payload"
	"indulgence/internal/transport"
	"indulgence/internal/wire"
)

// node is one live process in one instance. Each node owns its round
// loop and its algorithm state machine; its timeout detector and the
// transport endpoint underneath (and, when the endpoint is a mux stream,
// the sockets and mailboxes behind it) may be shared with the process's
// other instances.
type node struct {
	id        model.ProcessID
	cfg       *Config
	alg       model.Algorithm
	ep        transport.Transport
	detector  *fd.TimeoutDetector
	raised    int          // suspicion transitions credited to this node's polls
	overdue   model.PIDSet // peers its own polls found overdue, unheard since
	buffered  map[model.Round][]model.Message
	late      []model.Message // older-round messages awaiting delivery
	decisions chan<- NodeResult

	// The round machinery, kept for the node's life. recv backs every
	// round's receive set and poll is re-armed at every round start; both
	// are made at the first receive phase, buffered at the first
	// future-round frame. shares is false when the algorithm mutates
	// received payloads; otherwise lastBytes holds the payload bytes of
	// the last frame decoded (frames are immutable once sent) and
	// lastPayload what they decoded to.
	recv        []model.Message
	poll        clock.Ticker
	shares      bool
	lastBytes   []byte
	lastPayload model.Payload

	crashMu  sync.Mutex
	crashFn  context.CancelFunc
	crashed  bool
	preCrash bool // crash requested before start
}

// start launches the node's round loop.
func (n *node) start(ctx context.Context, wg *sync.WaitGroup) {
	nodeCtx, cancel := context.WithCancel(ctx)
	n.crashMu.Lock()
	n.crashFn = cancel
	pre := n.preCrash
	n.crashMu.Unlock()
	if pre {
		cancel()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer cancel()
		n.loop(nodeCtx)
	}()
}

// crash cancels the node's context.
func (n *node) crash() {
	n.crashMu.Lock()
	defer n.crashMu.Unlock()
	n.crashed = true
	if n.crashFn != nil {
		n.crashFn()
	} else {
		n.preCrash = true
	}
}

// loop is the node's round engine. It ends at the node's decision, a
// crash, context cancellation or MaxRounds, and reports its one result on
// the way out. A node that decides at the end of round k relays DECIDE
// once — the round-k+1 broadcast, since every algorithm's StartRound
// returns payload.Decide once decided — and halts. The relay goes out
// before the report, so no caller can stop the node between its decision
// and its relay; a relay in hand ends any receiver's wait (see collect).
func (n *node) loop(ctx context.Context) {
	start := n.cfg.Clock.Now()
	var (
		decided model.OptValue
		round   model.Round
	)
	for k := model.Round(1); k <= n.cfg.MaxRounds && ctx.Err() == nil; k++ {
		if err := n.broadcast(k); err != nil {
			break
		}
		msgs, ok := n.collect(ctx, k)
		if !ok {
			break
		}
		n.alg.EndRound(k, msgs)
		if v, has := n.alg.Decision(); has {
			decided, round = model.Some(v), k
			if ctx.Err() == nil {
				_ = n.broadcast(k + 1)
			}
			break
		}
	}
	if n.poll != nil {
		n.poll.Stop()
	}
	n.crashMu.Lock()
	crashed := n.crashed
	n.crashMu.Unlock()
	n.decisions <- NodeResult{
		ID:         n.id,
		Decision:   decided,
		Round:      round,
		Elapsed:    n.cfg.Clock.Since(start),
		Crashed:    crashed,
		Suspicions: n.raised + n.suspected().Len(),
	}
}

// broadcast sends the round-k message to every process, including this
// one, as one frame encoded once.
func (n *node) broadcast(k model.Round) error {
	return transport.Broadcast(n.ep, n.cfg.N, model.Message{From: n.id, Round: k, Payload: n.alg.StartRound(k)})
}

// collect gathers the round-k receive set according to the wait policy:
// at least n−t round-k messages and — under WaitUnsuspected — a message
// from every process the timeout detector does not suspect. Messages from
// earlier rounds buffered since the last receive phase are delivered
// alongside (the ES delayed-message semantics); future-round messages stay
// buffered. A DECIDE of round k or earlier — buffered for this round or
// arriving during it — ends the receive phase whatever the policy: its
// sender has halted, and the algorithm decides on it.
func (n *node) collect(ctx context.Context, k model.Round) ([]model.Message, bool) {
	quorum := n.cfg.N - n.cfg.T
	// The receive set reuses the node's array, remade only when it lacks
	// room for a message from every process plus the late ones, so
	// neither the receive loop nor the append that delivers the late
	// messages regrows it.
	early := n.buffered[k]
	delete(n.buffered, k)
	if need := max(len(early), n.cfg.N) + len(n.late); cap(n.recv) < need {
		n.recv = make([]model.Message, 0, need)
	}
	roundMsgs := append(n.recv[:0], early...)
	var (
		heard  model.PIDSet
		decide bool
	)
	for _, m := range roundMsgs {
		heard.Add(m.From)
		decide = decide || isDecide(m)
	}

	satisfied := func() bool {
		if decide {
			return true
		}
		if len(roundMsgs) < quorum {
			return false
		}
		if n.cfg.WaitPolicy == core.WaitQuorum {
			return true
		}
		unsuspected := model.FullPIDSet(n.cfg.N).Diff(n.suspected())
		return unsuspected.Diff(heard).IsEmpty()
	}

	roundAt := n.cfg.Clock.Now()
	if n.poll == nil {
		n.poll = n.cfg.Clock.NewTicker(n.cfg.BaseTimeout / 4)
	} else {
		n.poll.Reset(n.cfg.BaseTimeout / 4)
	}
	for !satisfied() {
		select {
		case <-ctx.Done():
			return nil, false
		case frame, ok := <-n.ep.Recv():
			if !ok {
				return nil, false
			}
			m, err := n.decode(frame)
			if err != nil {
				continue // a malformed frame is dropped, not fatal
			}
			n.detector.Heard(m.From)
			n.overdue.Remove(m.From)
			switch {
			case m.Round == k:
				if !heard.Has(m.From) {
					heard.Add(m.From)
					roundMsgs = append(roundMsgs, m)
					decide = decide || isDecide(m)
				}
			case m.Round < k:
				n.late = append(n.late, m)
				decide = decide || isDecide(m)
			default:
				if n.buffered == nil {
					n.buffered = make(map[model.Round][]model.Message)
				}
				n.buffered[m.Round] = append(n.buffered[m.Round], m)
			}
		case <-n.poll.C():
			// Suspect every unheard process whose timeout has expired
			// since this round began, on the cluster's clock.
			found := n.detector.SuspectOverdue(n.cfg.N, n.id, heard, roundAt)
			n.raised += found.Len()
			n.overdue = n.overdue.Union(found)
		}
	}

	n.recv = append(roundMsgs, n.late...)
	n.late = n.late[:0]
	sortReceived(n.recv)
	return n.recv, true
}

// decode decodes one message frame. A frame whose payload bytes equal the
// last decoded frame's gets that frame's payload, unless the algorithm
// mutates received payloads: payloads are shared-immutable, and from
// round 2 on most of a round's frames carry identical payload bytes.
func (n *node) decode(frame []byte) (model.Message, error) {
	m, raw, err := wire.SplitMessage(frame)
	if err != nil {
		return m, err
	}
	if n.shares && len(n.lastBytes) > 0 && bytes.Equal(raw, n.lastBytes) {
		m.Payload = n.lastPayload
		return m, nil
	}
	if m.Payload, _, err = wire.DecodePayload(raw); err != nil {
		return m, err
	}
	if n.shares {
		n.lastBytes, n.lastPayload = raw, m.Payload
	}
	return m, nil
}

// sortReceived orders a receive set by (Round, From) in place. An
// insertion sort: the set holds a few rounds of at most n messages each,
// and sort.Slice's closure and swapper cost more than the shifts on sets
// this small.
func sortReceived(msgs []model.Message) {
	for i := 1; i < len(msgs); i++ {
		m := msgs[i]
		j := i
		for ; j > 0 && (m.Round < msgs[j-1].Round ||
			m.Round == msgs[j-1].Round && m.From < msgs[j-1].From); j-- {
			msgs[j] = msgs[j-1]
		}
		msgs[j] = m
	}
}

// suspected returns the peers this node does not wait for: its shared
// detector's suspicions and its own overdue set. The detector shows a
// suspicion only from the instant after it is raised; the overdue set
// lets the node act on its own at once.
func (n *node) suspected() model.PIDSet {
	return n.detector.Suspected().Union(n.overdue)
}

// isDecide reports whether m carries a relayed decision.
func isDecide(m model.Message) bool {
	_, ok := m.Payload.(payload.Decide)
	return ok
}
