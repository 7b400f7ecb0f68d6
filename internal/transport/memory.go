package transport

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"indulgence/internal/chaos/clock"
	"indulgence/internal/model"
)

// Hub is an in-memory switch connecting n endpoints. It supports
// per-link delay injection — the tool with which the live experiments
// reproduce the paper's asynchronous periods and false suspicions — and
// never drops frames (reliable channels): a delayed or partitioned frame
// is delivered when its delay elapses.
//
// The hub runs on an injected clock: delayed deliveries are clock
// timers, so under the chaos harness's virtual clock an 80ms injected
// delay costs one discrete event instead of 80ms of wall time. The hub
// also counts the frames its mailboxes have accepted but not yet handed
// to a receiver; with a virtual clock it registers the count as an idle
// check, so simulated time never advances over a frame that is already
// deliverable. Only the hub's own mailboxes are counted: their consumers
// (a Mux router, or a node's round loop) always drain, so the count
// provably returns to zero once the goroutine fabric quiesces. Frames
// buffered further up in a Mux's per-instance streams are deliberately
// not — a crashed process stops reading its stream, and counting its
// backlog would hold virtual time still forever.
type Hub struct {
	n       int
	clk     clock.Clock
	pending atomic.Int64

	mu      sync.Mutex
	boxes   []*mailbox
	delayFn func(from, to model.ProcessID) time.Duration
	delayed map[*delayedFrame]struct{}
	timers  sync.WaitGroup
	closed  bool
}

// delayedFrame is one in-flight delayed delivery, tracked so Close can
// stop it (a virtual clock never fires timers on its own, so waiting
// for them would hang).
type delayedFrame struct{ timer clock.Timer }

// NewHub returns a hub connecting n endpoints with no injected delays,
// running on the wall clock.
func NewHub(n int) (*Hub, error) { return NewHubClock(n, clock.Real{}) }

// NewHubClock is NewHub on an explicit clock. When clk registers idle
// checks (a chaos virtual clock), the hub's in-flight frames hold the
// clock still until they are consumed.
func NewHubClock(n int, clk clock.Clock) (*Hub, error) {
	if n < 1 || n > model.MaxProcesses {
		return nil, fmt.Errorf("transport: invalid hub size %d", n)
	}
	h := &Hub{n: n, clk: clock.Or(clk), boxes: make([]*mailbox, n), delayed: make(map[*delayedFrame]struct{})}
	for i := range h.boxes {
		h.boxes[i] = newMailboxTracked(&h.pending)
	}
	if reg, ok := h.clk.(clock.IdleRegistry); ok {
		reg.RegisterIdle(func() bool { return h.pending.Load() == 0 })
	}
	return h, nil
}

// Endpoint returns the transport endpoint of process p.
func (h *Hub) Endpoint(p model.ProcessID) (Transport, error) {
	if p < 1 || int(p) > h.n {
		return nil, fmt.Errorf("transport: no endpoint %d in hub of %d", p, h.n)
	}
	return &hubEndpoint{hub: h, self: p}, nil
}

// SetDelayFn installs a per-link delay policy: every frame from from to to
// is delivered after delayFn(from, to). A nil function removes all injected
// delays. Self-links are never delayed (a process always hears itself
// in-round, mirroring the model).
func (h *Hub) SetDelayFn(delayFn func(from, to model.ProcessID) time.Duration) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.delayFn = delayFn
}

// DelayProcess delays every frame sent by p to other processes by d —
// the live analogue of the schedules in which p is falsely suspected by
// everyone (sched.DelayedSenderPrefix).
func (h *Hub) DelayProcess(p model.ProcessID, d time.Duration) {
	h.SetDelayFn(func(from, to model.ProcessID) time.Duration {
		if from == p && to != p {
			return d
		}
		return 0
	})
}

// Heal removes all injected delays.
func (h *Hub) Heal() { h.SetDelayFn(nil) }

// Close shuts every endpoint down. Delayed frames whose timers have not
// fired are discarded — their receivers' mailboxes are closing anyway —
// and in-flight handovers are waited out, so no timer goroutine touches
// a mailbox after Close returns.
func (h *Hub) Close() error {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return nil
	}
	h.closed = true
	boxes := h.boxes
	for d := range h.delayed {
		if d.timer.Stop() {
			h.timers.Done()
		}
	}
	h.delayed = nil
	h.mu.Unlock()
	h.timers.Wait()
	for _, b := range boxes {
		b.close()
	}
	return nil
}

func (h *Hub) send(from, to model.ProcessID, frame []byte) error {
	if to < 1 || int(to) > h.n {
		return fmt.Errorf("transport: send to unknown process %d", to)
	}
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return ErrClosed
	}
	box := h.boxes[to-1]
	var delay time.Duration
	if h.delayFn != nil && from != to {
		delay = h.delayFn(from, to)
	}
	if delay > 0 {
		h.timers.Add(1)
		d := &delayedFrame{}
		d.timer = h.clk.AfterFunc(delay, func() {
			defer h.timers.Done()
			h.mu.Lock()
			if h.delayed != nil {
				delete(h.delayed, d)
			}
			h.mu.Unlock()
			box.put(frame)
		})
		h.delayed[d] = struct{}{}
		h.mu.Unlock()
		return nil
	}
	h.mu.Unlock()
	box.put(frame)
	return nil
}

// hubEndpoint is one process's view of the hub.
type hubEndpoint struct {
	hub  *Hub
	self model.ProcessID
}

var _ Transport = (*hubEndpoint)(nil)

// Self implements Transport.
func (e *hubEndpoint) Self() model.ProcessID { return e.self }

// Send implements Transport.
func (e *hubEndpoint) Send(to model.ProcessID, frame []byte) error {
	return e.hub.send(e.self, to, frame)
}

// Recv implements Transport.
func (e *hubEndpoint) Recv() <-chan []byte { return e.hub.boxes[e.self-1].out }

// Close implements Transport. Closing one endpoint only detaches its
// mailbox; the hub itself is closed with Hub.Close.
func (e *hubEndpoint) Close() error {
	e.hub.boxes[e.self-1].close()
	return nil
}
