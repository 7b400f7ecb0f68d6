package transport

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sync"

	"indulgence/internal/metrics"
	"indulgence/internal/model"
	"indulgence/internal/wire"
)

// Mux multiplexes many consensus instances over one underlying
// Transport endpoint, so a service's concurrent instances share a single
// set of physical connections (one Hub mailbox, or one TCP connection
// per ordered process pair) instead of one cluster per instance. A
// stream is addressed by its instance ID alone. Outbound frames of
// instance 0 travel bare (version 0) and every other instance's in the
// version-1 instance envelope, so a pre-instance peer's bare frames
// route to instance 0. Inbound frames are routed by their instance ID
// (wire.StripInstance). A frame in the version-2 group envelope, which
// nothing writes any more, reads as a bare instance-0 frame that no
// message decoder accepts.
//
// The mux is the one record of where its process stands in each
// instance: open (Open succeeded), retired (Retire or RetireBelow), or
// pending — frames arrived before anyone opened it. Pending frames are
// buffered, never dropped — a peer may legitimately start an instance
// and broadcast before this process opens it, and the reliable-channel
// axiom must survive multiplexing. Frames for a retired instance are
// dropped: they can only be relay or round traffic reaching a process
// that has already finished the instance.
//
// Retirement is one frontier: below is the first ID not known retired
// (every ID under it is), and one set holds the retirements above a
// gap. Instance IDs are cut densely and every ID any member cuts is
// eventually retired here, so the frontier keeps up and the set stays
// bounded by the instances in flight.
type Mux struct {
	ep Transport

	mu         sync.Mutex
	onPending  func(instance uint64)
	streams    map[uint64]*muxStream
	retired    map[uint64]struct{}
	below      uint64
	closed     bool
	done       chan struct{}
	routerDone chan struct{}

	mIn, mOut *metrics.Counter
}

// NewMux starts a multiplexer over ep. The mux reads every inbound frame
// of ep from the moment of creation; the caller must no longer use
// ep.Recv directly. With a non-nil reg the mux counts frames on the
// unlabelled indulgence_frames_in_total (every well-formed inbound frame
// it delivers or buffers) and indulgence_frames_out_total (every frame
// sent through a virtual endpoint); muxes sharing one registry share the
// two counters. A nil reg counts nothing.
func NewMux(ep Transport, reg *metrics.Registry) *Mux {
	m := &Mux{
		ep:         ep,
		streams:    make(map[uint64]*muxStream),
		retired:    make(map[uint64]struct{}),
		done:       make(chan struct{}),
		routerDone: make(chan struct{}),
	}
	if reg != nil {
		m.mIn = reg.Counter("indulgence_frames_in_total",
			"well-formed inbound frames routed or buffered by the muxes")
		m.mOut = reg.Counter("indulgence_frames_out_total",
			"frames sent through the muxes' virtual endpoints")
	}
	go m.route()
	return m
}

// Self returns the identity of the underlying endpoint.
func (m *Mux) Self() model.ProcessID { return m.ep.Self() }

// OnPending installs the join signal: fn(instance) runs each time a
// frame arrives for a stream that is not open here — how a service with
// a remote process learns that a peer started an instance. The install
// replays the signal at once, in instance order on the caller's
// goroutine, for every stream already buffering frames without being
// open, and the router reads fn under the lock with which it checks that
// a stream is open, so no frame that arrived before the install goes
// unsignalled. Later signals run on the router goroutine: fn must not
// block (it would stall every instance's inbound traffic), and it may
// run repeatedly for one unopened instance — the receiver's Open,
// failing on an open or retired instance, is the dedupe.
func (m *Mux) OnPending(fn func(instance uint64)) {
	m.mu.Lock()
	m.onPending = fn
	var ids []uint64
	for id, s := range m.streams {
		if !s.opened {
			ids = append(ids, id)
		}
	}
	m.mu.Unlock()
	slices.Sort(ids)
	for _, id := range ids {
		fn(id)
	}
}

// Open returns the virtual endpoint of the given consensus instance.
// Frames that arrived for the instance before Open are already buffered
// and will be delivered in order. Opening an instance twice, or after it
// was retired, is an error.
func (m *Mux) Open(instance uint64) (Transport, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, ErrClosed
	}
	if m.isRetiredLocked(instance) {
		return nil, fmt.Errorf("transport: instance %d already retired", instance)
	}
	s, ok := m.streams[instance]
	if !ok {
		s = &muxStream{mux: m, id: instance, box: newMailbox()}
		m.streams[instance] = s
	} else if s.opened {
		return nil, fmt.Errorf("transport: instance %d already open", instance)
	}
	s.opened = true
	return s, nil
}

// Retire closes an instance's virtual endpoint and permanently drops any
// late frames addressed to it. Safe to call for instances never opened.
func (m *Mux) Retire(instance uint64) {
	m.mu.Lock()
	s := m.streams[instance]
	delete(m.streams, instance)
	if !m.isRetiredLocked(instance) {
		m.retired[instance] = struct{}{}
		m.advanceLocked()
	}
	m.mu.Unlock()
	if s != nil {
		s.box.close()
	}
}

// RetireBelow retires every instance with ID below frontier at once —
// the recovery path's bulk retirement. A restarted process raises the
// mux's frontier to it, so frames still in flight from a previous
// process lifetime (round and relay traffic of instances run before the
// crash) are dropped on arrival instead of buffering forever for
// instances nobody will open. Buffered frames of such instances are
// discarded too. A no-op when the frontier is already at or past it.
func (m *Mux) RetireBelow(frontier uint64) {
	m.mu.Lock()
	var stale []*muxStream
	for id, s := range m.streams {
		if id < frontier {
			delete(m.streams, id)
			stale = append(stale, s)
		}
	}
	for id := range m.retired {
		if id < frontier {
			delete(m.retired, id)
		}
	}
	m.below = max(m.below, frontier)
	m.advanceLocked()
	m.mu.Unlock()
	for _, s := range stale {
		s.box.close()
	}
}

// advanceLocked moves the frontier past every retired instance the set
// holds at it, so the set keeps only retirements above a gap; callers
// hold mu.
func (m *Mux) advanceLocked() {
	for {
		if _, ok := m.retired[m.below]; !ok {
			return
		}
		delete(m.retired, m.below)
		m.below++
	}
}

// Close shuts the mux down: every virtual endpoint's receive channel
// closes and the router stops. The underlying endpoint is left open — it
// belongs to whoever created it.
func (m *Mux) Close() error {
	streams, ok := m.detach()
	if !ok {
		return nil
	}
	close(m.done)
	<-m.routerDone
	for _, s := range streams {
		s.box.close()
	}
	return nil
}

// detach marks the mux closed and takes its streams, whose receive
// channels the caller closes once the router can no longer fill them;
// ok is false when the mux was closed already.
func (m *Mux) detach() (streams map[uint64]*muxStream, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, false
	}
	m.closed = true
	streams, m.streams = m.streams, nil
	return streams, true
}

// isRetiredLocked reports whether instance was retired; callers hold
// mu.
func (m *Mux) isRetiredLocked(instance uint64) bool {
	if instance < m.below {
		return true
	}
	_, ok := m.retired[instance]
	return ok
}

// route moves inbound frames from the underlying endpoint to the virtual
// endpoint addressed by their instance, creating buffer streams for
// instances not opened yet. It exits when the mux or the underlying
// endpoint closes; virtual receive channels of a closed underlying
// endpoint close too, so round loops observe the closure.
func (m *Mux) route() {
	defer close(m.routerDone)
	for {
		select {
		case <-m.done:
			return
		case frame, ok := <-m.ep.Recv():
			if !ok {
				streams, _ := m.detach()
				for _, s := range streams {
					s.box.close()
				}
				return
			}
			// The instance ID is the whole address.
			instance, inner, err := wire.StripInstance(frame)
			if err != nil {
				continue // a malformed envelope is dropped, like a malformed message
			}
			m.mu.Lock()
			if m.closed || m.isRetiredLocked(instance) {
				m.mu.Unlock()
				continue
			}
			m.mIn.Inc()
			s, ok := m.streams[instance]
			if !ok {
				s = &muxStream{mux: m, id: instance, box: newMailbox()}
				m.streams[instance] = s
			}
			var signal func(instance uint64)
			if !s.opened {
				signal = m.onPending
			}
			m.mu.Unlock()
			s.box.put(inner)
			if signal != nil {
				signal(instance)
			}
		}
	}
}

// muxStream is one instance's virtual endpoint over a Mux.
type muxStream struct {
	mux    *Mux
	id     uint64
	box    *mailbox
	opened bool
}

var _ Transport = (*muxStream)(nil)

// Self implements Transport.
func (s *muxStream) Self() model.ProcessID { return s.mux.Self() }

// Send implements Transport: the frame travels over the underlying
// endpoint wrapped in the stream's envelope (see header). Frames must be
// version-0 wire frames (bare messages), which is what the runtime
// produces.
//
// Sends on a closed mux or a retired instance fail with ErrClosed
// instead of leaking onto the shared endpoint: round loops treat a send
// failure as terminal, which gives an aborted service's leftover nodes
// crash-stop semantics — a successor service reusing the endpoints (and,
// past the recovered frontier, the instance IDs) never sees their
// frames.
func (s *muxStream) Send(to model.ProcessID, frame []byte) error {
	out, err := s.live()
	if err != nil {
		return err
	}
	out.Inc()
	if s.id == 0 {
		return s.mux.ep.Send(to, frame)
	}
	wrapped := s.header(make([]byte, 0, len(frame)+binary.MaxVarintLen64+1))
	return s.mux.ep.Send(to, append(wrapped, frame...))
}

// header appends the stream's envelope to dst: nothing for instance 0
// (the compatibility stream, whose bare frames any peer, muxed or not,
// routes to instance 0), the version-1 instance envelope for every other
// instance.
func (s *muxStream) header(dst []byte) []byte {
	if s.id == 0 {
		return dst
	}
	return wire.AppendInstanceHeader(dst, s.id)
}

// broadcastHeadroom is the spare capacity Broadcast wants before it
// encodes into a caller's buffer: the largest instance envelope header
// plus a round message of any common payload, so the encoding lands
// without regrowing the buffer.
const broadcastHeadroom = 64

// broadcastBuffer sizes the buffer Broadcast starts when the caller's
// has less than broadcastHeadroom spare. A round frame of a small
// cluster is about 26 bytes, so it takes five before the spare runs
// short: a node that decides within four rounds sends all its frames,
// relay included, from one allocation.
const broadcastBuffer = 3 * broadcastHeadroom

// Broadcast encodes m once and sends the one frame to every process
// 1..n through ep, in ascending order. The frame is appended to dst —
// or to a fresh buffer when dst has less than broadcastHeadroom spare —
// and the extended buffer is returned, so a caller that passes it back
// encodes many broadcasts into one allocation. Bytes already in dst are
// never written, and the frame goes out capacity-limited, so no
// transport can append into the spare after it.
//
// On a mux stream the frame carries the stream's envelope and goes
// straight to the mux's underlying endpoint, byte-identical to n calls
// of the stream's Send: the stream is checked for closure or retirement
// once (ErrClosed, nothing sent), and every frame still counts on the
// mux's outbound counter. Any other endpoint gets the bare encoding.
// The n sends share the frame (see Transport.Send); the first send
// error ends the broadcast.
func Broadcast(dst []byte, ep Transport, n int, m model.Message) ([]byte, error) {
	buf := dst
	if cap(buf)-len(buf) < broadcastHeadroom {
		buf = make([]byte, 0, broadcastBuffer)
	}
	start := len(buf)
	to := ep
	var out *metrics.Counter
	if s, ok := ep.(*muxStream); ok {
		var err error
		if out, err = s.live(); err != nil {
			return dst, err
		}
		to = s.mux.ep
		buf = s.header(buf)
	}
	buf, err := wire.EncodeMessage(buf, m)
	if err != nil {
		return dst, err
	}
	frame := buf[start:len(buf):len(buf)]
	for q := model.ProcessID(1); int(q) <= n; q++ {
		out.Inc()
		if err := to.Send(q, frame); err != nil {
			return buf, err
		}
	}
	return buf, nil
}

// live returns the mux's outbound counter, or ErrClosed once the mux is
// closed or the stream retired.
func (s *muxStream) live() (*metrics.Counter, error) {
	s.mux.mu.Lock()
	defer s.mux.mu.Unlock()
	if s.mux.closed || s.mux.isRetiredLocked(s.id) {
		return nil, ErrClosed
	}
	return s.mux.mOut, nil
}

// Recv implements Transport.
func (s *muxStream) Recv() <-chan []byte { return s.box.out }

// Close implements Transport by retiring the instance on the mux.
func (s *muxStream) Close() error {
	s.mux.Retire(s.id)
	return nil
}
