package runtime

import (
	"bytes"
	"context"
	"fmt"
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
	decisions chan<- NodeResult

	// The round machinery, kept for the node's life. inbox assembles
	// every round's receive set and holds future-round frames; poll is
	// made at the first receive phase and re-armed at every round start.
	// lastBytes holds the payload bytes of the last frame decoded (frames
	// are immutable once sent) and lastPayload what they decoded to. out
	// is the broadcast buffer: every round's frame and the relay are
	// appended to it (see transport.Broadcast).
	inbox       payload.Inbox
	poll        clock.Ticker
	lastBytes   []byte
	lastPayload model.Payload
	out         []byte

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
// the way out. The node decides the value of a DECIDE its round-k receive
// set holds, without calling EndRound; otherwise the algorithm's decision
// after EndRound. A node that decides at the end of round k relays DECIDE
// once — the round-k+1 broadcast, built here — and halts; its algorithm
// is not called again. The relay goes out before the report, so no caller
// can stop the node between its decision and its relay; a relay in hand
// ends any receiver's wait (see collect).
func (n *node) loop(ctx context.Context) {
	start := n.cfg.Clock.Now()
	var (
		decided model.OptValue
		round   model.Round
	)
	for k := model.Round(1); k <= n.cfg.MaxRounds && ctx.Err() == nil; k++ {
		if err := n.broadcast(k, n.alg.StartRound(k)); err != nil {
			break
		}
		msgs, ok := n.collect(ctx, k)
		if !ok {
			break
		}
		v, has := n.inbox.Decided()
		if !has {
			n.alg.EndRound(k, msgs)
			v, has = n.alg.Decision()
		}
		if has {
			decided, round = model.Some(v), k
			if ctx.Err() == nil {
				_ = n.broadcast(k+1, payload.Decide{V: v})
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
// one, as one frame encoded once into the node's broadcast buffer.
func (n *node) broadcast(k model.Round, pl model.Payload) error {
	var err error
	n.out, err = transport.Broadcast(n.out, n.ep, n.cfg.N, model.Message{From: n.id, Round: k, Payload: pl})
	return err
}

// collect gathers the round-k receive set according to the wait policy:
// at least n−t round-k messages and — under WaitUnsuspected — a message
// from every process the timeout detector does not suspect. The node's
// inbox assembles the set by the one rule the simulator also runs (see
// payload.Inbox): one message per sender and send round, round-k ones
// that arrived early included, plus the messages of earlier rounds that
// arrive during round k, while future-round messages stay held. A DECIDE
// of round k or earlier ends the receive phase whatever the policy: its
// sender has halted, and the node decides on it (see loop).
func (n *node) collect(ctx context.Context, k model.Round) ([]model.Message, bool) {
	quorum := n.cfg.N - n.cfg.T
	in := &n.inbox
	in.Begin(k, n.cfg.N)
	satisfied := func() bool {
		if _, ok := in.Decided(); ok {
			return true
		}
		heard := in.Heard()
		if heard.Len() < quorum {
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
			in.Add(m)
		case <-n.poll.C():
			// Suspect every unheard process whose timeout has expired
			// since this round began, on the cluster's clock.
			found := n.detector.SuspectOverdue(n.cfg.N, n.id, in.Heard(), roundAt)
			n.raised += found.Len()
			n.overdue = n.overdue.Union(found)
		}
	}
	return in.Take(), true
}

// decode decodes one message frame. A frame from a sender outside 1..n or
// of a round below 1 is malformed: no process sends it. A frame whose
// payload bytes equal the last decoded frame's gets that frame's payload:
// payloads are never mutated, and from round 2 on most of a round's
// frames carry identical payload bytes.
func (n *node) decode(frame []byte) (model.Message, error) {
	m, raw, err := wire.SplitMessage(frame)
	if err != nil {
		return m, err
	}
	if m.From < 1 || int(m.From) > n.cfg.N || m.Round < 1 {
		return m, fmt.Errorf("runtime: frame from p%d of round %d: want a sender in 1..%d and a round of at least 1", m.From, m.Round, n.cfg.N)
	}
	if len(n.lastBytes) > 0 && bytes.Equal(raw, n.lastBytes) {
		m.Payload = n.lastPayload
		return m, nil
	}
	if m.Payload, _, err = wire.DecodePayload(raw); err != nil {
		return m, err
	}
	n.lastBytes, n.lastPayload = raw, m.Payload
	return m, nil
}

// suspected returns the peers this node does not wait for: its shared
// detector's suspicions and its own overdue set. The detector shows a
// suspicion only from the instant after it is raised; the overdue set
// lets the node act on its own at once.
func (n *node) suspected() model.PIDSet {
	return n.detector.Suspected().Union(n.overdue)
}
