package transport

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"indulgence/internal/metrics"
	"indulgence/internal/model"
	"indulgence/internal/wire"
)

// streamKey addresses one virtual endpoint of a Mux: a consensus group
// and an instance within it. The single-group service uses group 0 —
// the compatibility group — exclusively.
type streamKey struct {
	group    uint64
	instance uint64
}

// groupRetired is one group's retirement state: every instance ID below
// `below` is retired, plus every member of set. With consecutive IDs,
// retired roughly in open order, the set stays a few inflight-bounds
// large; strided IDs (G > 1 groups) leave gaps `below` never crosses, so
// their set grows until RetireGroupBelow raises the frontier.
type groupRetired struct {
	below uint64
	set   map[uint64]struct{}
}

// advance moves below past every retired instance the set holds at it,
// so the set keeps only retirements above a gap.
func (r *groupRetired) advance() {
	for {
		if _, ok := r.set[r.below]; !ok {
			return
		}
		delete(r.set, r.below)
		r.below++
	}
}

// Mux multiplexes many consensus instances — across many independent
// consensus groups — over one underlying Transport endpoint, so a whole
// sharded runtime's worth of concurrent instances shares a single set
// of physical connections (one Hub mailbox, or one TCP connection per
// ordered process pair) instead of one cluster per instance. Outbound
// frames are wrapped in the wire envelope carrying the (group,
// instance) address; inbound frames are routed to the matching virtual
// endpoint. Version-0 frames from pre-instance peers route to (0, 0)
// and version-1 frames to (0, instance): group 0 is the compatibility
// group, and a mux used only through the group-0 entry points behaves
// byte-identically to the pre-group mux.
//
// The mux is the one record of where its process stands in each
// instance: open (OpenGroup succeeded), retired (RetireGroup or
// RetireGroupBelow), or pending — frames arrived before anyone opened
// it. Pending frames are buffered, never dropped — a peer may
// legitimately start an instance and broadcast before this process
// opens it, and the reliable-channel axiom must survive multiplexing.
// Frames for a retired instance are dropped: they can only be relay or
// round traffic reaching a process that has already finished the
// instance. Retirement state is tracked per group, so each group's
// frontier advances independently of its neighbors'.
type Mux struct {
	ep Transport

	mu         sync.Mutex
	onPending  func(group, instance uint64)
	streams    map[streamKey]*muxStream
	retired    map[uint64]*groupRetired
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
		streams:    make(map[streamKey]*muxStream),
		retired:    make(map[uint64]*groupRetired),
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

// OnPending installs the join signal: fn(group, instance) runs each time
// a frame arrives for a stream that is not open here — how a service
// with a remote process learns that a peer started an instance. The
// install replays the signal at once, in (group, instance) order on the
// caller's goroutine, for every stream already buffering frames without
// being open, and the router reads fn under the lock with which it
// checks that a stream is open, so no frame that arrived before the
// install goes unsignalled. Later signals run on the router goroutine:
// fn must not block (it would stall every instance's inbound traffic),
// and it may run repeatedly for one unopened instance — the receiver's
// OpenGroup, failing on an open or retired instance, is the dedupe.
func (m *Mux) OnPending(fn func(group, instance uint64)) {
	m.mu.Lock()
	m.onPending = fn
	var keys []streamKey
	for key, s := range m.streams {
		if !s.opened {
			keys = append(keys, key)
		}
	}
	m.mu.Unlock()
	slices.SortFunc(keys, func(a, b streamKey) int {
		return cmp.Or(cmp.Compare(a.group, b.group), cmp.Compare(a.instance, b.instance))
	})
	for _, key := range keys {
		fn(key.group, key.instance)
	}
}

// Open returns the virtual endpoint of the given group-0 consensus
// instance; it is OpenGroup(0, instance).
func (m *Mux) Open(instance uint64) (Transport, error) {
	return m.OpenGroup(0, instance)
}

// OpenGroup returns the virtual endpoint of the given consensus
// instance of the given group. Frames that arrived for the instance
// before OpenGroup are already buffered and will be delivered in order.
// Opening an instance twice, or after it was retired, is an error.
func (m *Mux) OpenGroup(group, instance uint64) (Transport, error) {
	key := streamKey{group, instance}
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, ErrClosed
	}
	if m.isRetiredLocked(key) {
		return nil, fmt.Errorf("transport: group %d instance %d already retired", group, instance)
	}
	s, ok := m.streams[key]
	if !ok {
		s = &muxStream{mux: m, key: key, box: newMailbox()}
		m.streams[key] = s
	} else if s.opened {
		return nil, fmt.Errorf("transport: group %d instance %d already open", group, instance)
	}
	s.opened = true
	return s, nil
}

// Retire closes a group-0 instance's virtual endpoint; it is
// RetireGroup(0, instance).
func (m *Mux) Retire(instance uint64) { m.RetireGroup(0, instance) }

// RetireGroup closes an instance's virtual endpoint and permanently
// drops any late frames addressed to it. Safe to call for instances
// never opened.
func (m *Mux) RetireGroup(group, instance uint64) {
	key := streamKey{group, instance}
	m.mu.Lock()
	s := m.streams[key]
	delete(m.streams, key)
	if !m.isRetiredLocked(key) {
		r := m.retiredFor(group)
		r.set[instance] = struct{}{}
		r.advance()
	}
	m.mu.Unlock()
	if s != nil {
		s.box.close()
	}
}

// RetireGroupBelow retires every instance of group with ID below
// frontier at once — the recovery path's bulk retirement. A restarted
// service raises its group's frontier past every journaled instance, so
// frames still in flight from a previous process lifetime (round and
// relay traffic of instances run before the crash) are dropped on arrival
// instead of buffering forever for instances nobody will open. Buffered
// frames of such instances are discarded too; other groups' streams are
// untouched. A no-op when frontier does not extend the group's retired
// prefix.
func (m *Mux) RetireGroupBelow(group, frontier uint64) {
	m.mu.Lock()
	r := m.retiredFor(group)
	if frontier <= r.below {
		m.mu.Unlock()
		return
	}
	var stale []*muxStream
	for key, s := range m.streams {
		if key.group == group && key.instance < frontier {
			delete(m.streams, key)
			stale = append(stale, s)
		}
	}
	for id := range r.set {
		if id < frontier {
			delete(r.set, id)
		}
	}
	r.below = frontier
	r.advance()
	m.mu.Unlock()
	for _, s := range stale {
		s.box.close()
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
func (m *Mux) detach() (streams map[streamKey]*muxStream, ok bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, false
	}
	m.closed = true
	streams, m.streams = m.streams, nil
	return streams, true
}

// retiredFor returns (creating if needed) a group's retirement state;
// callers hold mu.
func (m *Mux) retiredFor(group uint64) *groupRetired {
	r, ok := m.retired[group]
	if !ok {
		r = &groupRetired{set: make(map[uint64]struct{})}
		m.retired[group] = r
	}
	return r
}

// isRetiredLocked reports whether key was retired; callers hold mu.
func (m *Mux) isRetiredLocked(key streamKey) bool {
	r, ok := m.retired[key.group]
	if !ok {
		return false
	}
	if key.instance < r.below {
		return true
	}
	_, ok = r.set[key.instance]
	return ok
}

// route moves inbound frames from the underlying endpoint to the virtual
// endpoint addressed by their (group, instance), creating buffer streams
// for instances not opened yet. It exits when the mux or the underlying
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
			group, instance, inner, err := wire.StripGroup(frame)
			if err != nil {
				continue // a malformed envelope is dropped, like a malformed message
			}
			key := streamKey{group, instance}
			m.mu.Lock()
			if m.closed || m.isRetiredLocked(key) {
				m.mu.Unlock()
				continue
			}
			m.mIn.Inc()
			s, ok := m.streams[key]
			if !ok {
				s = &muxStream{mux: m, key: key, box: newMailbox()}
				m.streams[key] = s
			}
			var signal func(group, instance uint64)
			if !s.opened {
				signal = m.onPending
			}
			m.mu.Unlock()
			s.box.put(inner)
			if signal != nil {
				signal(group, instance)
			}
		}
	}
}

// muxStream is one (group, instance)'s virtual endpoint over a Mux.
type muxStream struct {
	mux    *Mux
	key    streamKey
	box    *mailbox
	opened bool
}

var _ Transport = (*muxStream)(nil)

// Self implements Transport.
func (s *muxStream) Self() model.ProcessID { return s.mux.Self() }

// Send implements Transport: the frame travels over the underlying
// endpoint wrapped in the envelope addressing the stream. Frames must be
// version-0 wire frames (bare messages), which is what the runtime
// produces. Group 0 emits the pre-group layouts — instance 0 sends
// bare (it is the compatibility stream, and a bare frame routes to
// (0, 0) on any peer, muxed or not), other group-0 instances the
// version-1 envelope — so a single-group deployment's frames are
// byte-identical to what it sent before groups existed.
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
	if s.key.group == 0 && s.key.instance == 0 {
		return s.mux.ep.Send(to, frame)
	}
	wrapped := wire.AppendGroupHeader(make([]byte, 0, len(frame)+20), s.key.group, s.key.instance)
	return s.mux.ep.Send(to, append(wrapped, frame...))
}

// broadcastHeadroom sizes a broadcast's one frame buffer: the largest
// group envelope header plus a round message of any common payload, so
// the encoding lands without regrowing the buffer.
const broadcastHeadroom = 64

// Broadcast encodes m once and sends the one frame to every process
// 1..n through ep, in ascending order. On a mux stream the frame carries
// the stream's envelope and goes straight to the mux's underlying
// endpoint, byte-identical to n calls of the stream's Send: the stream
// is checked for closure or retirement once (ErrClosed, nothing sent),
// and every frame still counts on the mux's outbound counter. Any other
// endpoint gets the bare encoding. The n sends share the frame (see
// Transport.Send); the first send error ends the broadcast.
func Broadcast(ep Transport, n int, m model.Message) error {
	dst := ep
	buf := make([]byte, 0, broadcastHeadroom)
	var out *metrics.Counter
	if s, ok := ep.(*muxStream); ok {
		var err error
		if out, err = s.live(); err != nil {
			return err
		}
		dst = s.mux.ep
		buf = wire.AppendGroupHeader(buf, s.key.group, s.key.instance)
	}
	frame, err := wire.EncodeMessage(buf, m)
	if err != nil {
		return err
	}
	for q := model.ProcessID(1); int(q) <= n; q++ {
		out.Inc()
		if err := dst.Send(q, frame); err != nil {
			return err
		}
	}
	return nil
}

// live returns the mux's outbound counter, or ErrClosed once the mux is
// closed or the stream retired.
func (s *muxStream) live() (*metrics.Counter, error) {
	s.mux.mu.Lock()
	defer s.mux.mu.Unlock()
	if s.mux.closed || s.mux.isRetiredLocked(s.key) {
		return nil, ErrClosed
	}
	return s.mux.mOut, nil
}

// Recv implements Transport.
func (s *muxStream) Recv() <-chan []byte { return s.box.out }

// Close implements Transport by retiring the instance on the mux.
func (s *muxStream) Close() error {
	s.mux.RetireGroup(s.key.group, s.key.instance)
	return nil
}
