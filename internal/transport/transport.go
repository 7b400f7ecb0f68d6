// Package transport provides the message transports of the live runtime:
// an in-memory hub with injectable per-link delays (for reproducing the
// paper's asynchronous periods on one machine) and a peer-configured TCP
// transport (for running the algorithms as genuinely separate OS
// processes over real sockets). A TCPEndpoint is one process's half of a
// multi-process cluster, built from a PeerConfig (self ID plus addressed
// peer list, parseable from `-peers p1=host:port,...` or a peer file):
// it listens on its own entry, identifies every connection with a
// handshake frame (cluster ID + sender ID) instead of relying on dial
// order, and redials broken peers with bounded backoff so a crashed and
// restarted member rejoins without the cluster restarting. TCPCluster is
// the in-process loopback convenience built on the same endpoints. All
// transports move opaque frames produced by package wire; none
// interprets them. A Mux layers instance multiplexing on top of any of
// them: it routes the wire instance envelope so that many concurrent
// consensus instances share one endpoint's physical connections, which
// is how the service layer runs a whole fleet of instances over a single
// cluster.
//
// Delivery guarantees mirror the ES channel axioms while connections
// hold: frames are never dropped (reliable channels) but may be delayed
// arbitrarily — by injected delays on the hub, by outages and reconnect
// backoff on TCP. Frames in flight at the instant a TCP connection
// breaks may be lost with it (see TCPEndpoint); the round protocol
// absorbs that window as a transient suspicion. Per-link FIFO order is
// not guaranteed under injected delays, which is harmless because round
// messages are self-describing.
package transport

import (
	"errors"
	"sync"
	"sync/atomic"

	"indulgence/internal/model"
)

// ErrClosed reports use of a closed transport.
var ErrClosed = errors.New("transport: closed")

// Transport moves frames between processes. Implementations must be safe
// for concurrent use.
type Transport interface {
	// Self returns the identity this endpoint sends as.
	Self() model.ProcessID
	// Send enqueues a frame for delivery to the given process (including
	// to itself). It never blocks on the receiver. A frame is immutable
	// once passed to Send: neither the caller nor any transport writes to
	// it afterwards, and the same slice may reach several receivers (a
	// Broadcast hands one frame to every destination).
	Send(to model.ProcessID, frame []byte) error
	// Recv returns the channel on which inbound frames arrive. The
	// channel is closed when the transport is closed. A received frame
	// is read-only, like a sent one: it may share its backing array with
	// other frames from the same connection (a TCP endpoint reads many
	// frames into one chunk, see wire.FrameReader), and is never
	// written again by the transport either.
	Recv() <-chan []byte
	// Close releases the endpoint. Further Sends fail with ErrClosed.
	Close() error
}

// fifo is an unbounded FIFO of frames on a power-of-two ring: a push
// into a full ring doubles it, and a pop nils its slot so the ring does
// not keep a delivered frame alive. It is the one queue of the package —
// a mailbox's and a TCP link's — and is guarded by its owner's lock.
type fifo struct {
	ring  [][]byte
	head  int
	count int
}

// fifoMinCap is a fifo's first ring size: a consumer that keeps up
// rarely has more than one round of a small cluster's frames queued.
const fifoMinCap = 4

// len returns the number of queued frames.
func (q *fifo) len() int { return q.count }

// push appends frame at the tail.
func (q *fifo) push(frame []byte) {
	if q.count == len(q.ring) {
		ring := make([][]byte, max(2*len(q.ring), fifoMinCap))
		n := copy(ring, q.ring[q.head:])
		copy(ring[n:], q.ring[:q.head])
		q.ring, q.head = ring, 0
	}
	q.ring[(q.head+q.count)&(len(q.ring)-1)] = frame
	q.count++
}

// pop removes and returns the head frame; the queue must not be empty.
func (q *fifo) pop() []byte {
	frame := q.ring[q.head]
	q.drop(1)
	return frame
}

// peek appends up to limit frames from the head to dst without removing
// them.
func (q *fifo) peek(dst [][]byte, limit int) [][]byte {
	for i := 0; i < q.count && i < limit; i++ {
		dst = append(dst, q.ring[(q.head+i)&(len(q.ring)-1)])
	}
	return dst
}

// drop removes the n head frames; n must not exceed len.
func (q *fifo) drop(n int) {
	for ; n > 0; n-- {
		q.ring[q.head] = nil
		q.head = (q.head + 1) & (len(q.ring) - 1)
		q.count--
	}
}

// mailbox is an unbounded, closable FIFO of frames feeding a channel. The
// unbounded buffer is deliberate: a sender must never block on a slow
// receiver (that would let one crashed process wedge the cluster), and
// frames must never be dropped (reliable channels). Memory is bounded in
// practice by the runtime's round pacing.
//
// When track is non-nil the mailbox participates in in-flight
// accounting: every accepted frame counts until the instant a receiver
// takes it from the out channel (or the mailbox closes with it queued).
type mailbox struct {
	track  *atomic.Int64
	mu     sync.Mutex
	queue  fifo
	wake   chan struct{}
	out    chan []byte
	closed bool
	done   chan struct{}
}

func newMailbox() *mailbox { return newMailboxTracked(nil) }

func newMailboxTracked(track *atomic.Int64) *mailbox {
	m := &mailbox{
		track: track,
		wake:  make(chan struct{}, 1),
		out:   make(chan []byte),
		done:  make(chan struct{}),
	}
	go m.pump()
	return m
}

// put enqueues a frame; it is a no-op after close.
func (m *mailbox) put(frame []byte) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.queue.push(frame)
	if m.track != nil {
		m.track.Add(1)
	}
	m.mu.Unlock()
	select {
	case m.wake <- struct{}{}:
	default:
	}
}

// pump moves frames from the queue to the out channel until closed.
func (m *mailbox) pump() {
	defer close(m.out)
	for {
		m.mu.Lock()
		for m.queue.len() == 0 {
			closed := m.closed
			m.mu.Unlock()
			if closed {
				return
			}
			select {
			case <-m.wake:
			case <-m.done:
			}
			m.mu.Lock()
		}
		frame := m.queue.pop()
		m.mu.Unlock()
		select {
		case m.out <- frame:
			if m.track != nil {
				m.track.Add(-1)
			}
		case <-m.done:
			if m.track != nil {
				m.track.Add(-1) // the popped frame dies with the mailbox
			}
			return
		}
	}
}

// close stops the pump; pending frames are discarded (and released from
// the in-flight count).
func (m *mailbox) close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	if m.track != nil {
		m.track.Add(-int64(m.queue.len()))
	}
	m.queue = fifo{}
	m.mu.Unlock()
	close(m.done)
}
