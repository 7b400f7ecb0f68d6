package transport

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"indulgence/internal/chaos/clock"
	"indulgence/internal/model"
	"indulgence/internal/wire"
)

// handshakeTimeout bounds how long an accepted connection may take to
// present its hello frame, and how long writing the outbound hello may
// take.
const handshakeTimeout = 3 * time.Second

// TCPOptions tunes a multi-process TCP endpoint. The zero value is
// usable: sane timeouts, silent diagnostics.
type TCPOptions struct {
	// DialTimeout bounds each outbound connection attempt (default 3s).
	// Without it a black-holed peer would wedge the dialer forever; with
	// it the attempt fails, the error names the peer, and the bounded
	// backoff below schedules the next try.
	DialTimeout time.Duration
	// RetryMin and RetryMax bound the reconnect backoff: the first
	// redial waits RetryMin, doubling per failure up to RetryMax
	// (defaults 50ms and 2s). A restarted peer is therefore re-reached
	// within one RetryMax of coming back.
	RetryMin, RetryMax time.Duration
	// Logf, when non-nil, receives connection-lifecycle diagnostics
	// (dial failures, handshake rejections). The transport never logs
	// frame contents.
	Logf func(format string, args ...any)
	// Clock supplies the time the reconnect pacer observes (default
	// clock.Real). Socket deadlines stay on the wall clock regardless —
	// the kernel enforces them — but backoff spacing is schedulable
	// state, so under a virtual clock redial pacing compresses with the
	// rest of the run.
	Clock clock.Clock
}

// withDefaults returns o with zero fields replaced by defaults.
func (o TCPOptions) withDefaults() TCPOptions {
	if o.DialTimeout == 0 {
		o.DialTimeout = 3 * time.Second
	}
	if o.RetryMin == 0 {
		o.RetryMin = 50 * time.Millisecond
	}
	if o.RetryMax == 0 {
		o.RetryMax = 2 * time.Second
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	o.Clock = clock.Or(o.Clock)
	return o
}

// TCPEndpoint is one process of a multi-process cluster: it listens on
// its own PeerConfig address, accepts handshake-identified inbound
// connections from any peer, and owns one outbound connection per peer
// (the sender-owned i→j convention of the loopback cluster, kept).
//
// Outbound delivery is asynchronous: Send enqueues on the peer's link
// and never blocks on the network, and each link's writer goroutine
// dials lazily, redials with bounded backoff after any failure, and
// retries the frame a broken connection interrupted on the next
// connection. A peer that crashes and restarts (same address, fresh
// listener) is therefore rejoined automatically — the queued frames
// flush as soon as a redial lands — without restarting the cluster.
// Frames queued for a peer that never comes back are discarded at
// Close, like a mailbox's.
//
// Delivery across a connection break is at-most-once: frames the writer
// flushed in the instant between the peer dying and the break being
// detected are lost with the socket (TCP acknowledges nothing to the
// application). A per-connection watchdog severs the link the moment
// the peer closes, which keeps that window to microseconds; the frames
// it saves are retried on the next connection, and the loss that
// remains looks to the round protocol exactly like a transiently slow
// process — absorbed by the failure-detector discipline, never by
// safety, which rests on the journal.
//
// Connections open with a two-way hello handshake (wire.HelloRecord:
// cluster ID + sender ID in both directions): the dialer sends its
// hello first, the acceptor validates it and answers with its own, and
// only the ack makes the connection live. Endpoints therefore identify
// themselves instead of being identified by dial order, a connection
// from a different cluster is refused at accept time, and the refusal
// is visible to the dialer as a failed dial — not as frames silently
// written into a socket nobody reads.
type TCPEndpoint struct {
	cfg   PeerConfig
	opts  TCPOptions
	ln    net.Listener
	box   *mailbox
	links map[model.ProcessID]*peerLink

	// dialCtx cancels in-flight dial attempts at Close.
	dialCtx    context.Context
	dialCancel context.CancelFunc

	mu      sync.Mutex
	inbound map[net.Conn]struct{}
	closed  bool
	done    chan struct{}
	wg      sync.WaitGroup
}

var _ Transport = (*TCPEndpoint)(nil)

// NewTCPEndpoint validates cfg, listens on the self peer's address and
// starts the accept loop and one outbound link per peer. Peers are
// dialed lazily on first send, so construction succeeds even while
// peers are still coming up — the links redial with bounded backoff
// until they land.
func NewTCPEndpoint(cfg PeerConfig, opts TCPOptions) (*TCPEndpoint, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	addr, err := cfg.SelfAddr()
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: p%d listen on %s: %w", cfg.Self, addr, err)
	}
	return newTCPEndpoint(ln, cfg, opts), nil
}

// newTCPEndpoint assembles an endpoint over an already-bound listener
// (NewTCPCluster binds ephemeral ports before peer addresses are known).
func newTCPEndpoint(ln net.Listener, cfg PeerConfig, opts TCPOptions) *TCPEndpoint {
	e := &TCPEndpoint{
		cfg:     cfg,
		opts:    opts.withDefaults(),
		ln:      ln,
		box:     newMailbox(),
		links:   make(map[model.ProcessID]*peerLink, len(cfg.Peers)),
		inbound: make(map[net.Conn]struct{}),
		done:    make(chan struct{}),
	}
	e.dialCtx, e.dialCancel = context.WithCancel(context.Background())
	for _, p := range cfg.Peers {
		if p.ID == cfg.Self {
			continue
		}
		l := &peerLink{ep: e, peer: p.ID, addr: p.Addr, wake: make(chan struct{}, 1),
			pace: newReconnectPacer(e.opts.RetryMin, e.opts.RetryMax)}
		e.links[p.ID] = l
		e.wg.Add(1)
		go l.run()
	}
	e.acceptLoop()
	return e
}

// Self implements Transport.
func (e *TCPEndpoint) Self() model.ProcessID { return e.cfg.Self }

// Addr returns the address the endpoint is listening on — the bound
// port, useful when the config asked for an ephemeral one.
func (e *TCPEndpoint) Addr() net.Addr { return e.ln.Addr() }

// Send implements Transport. Self-sends short-circuit through the
// mailbox; peer sends enqueue on the peer's link and never block on the
// network (an unreachable peer must not wedge the round loop — its
// frames queue until the link redials).
func (e *TCPEndpoint) Send(to model.ProcessID, frame []byte) error {
	e.mu.Lock()
	closed := e.closed
	e.mu.Unlock()
	if closed {
		return ErrClosed
	}
	if to == e.cfg.Self {
		e.box.put(frame)
		return nil
	}
	if len(frame) > wire.MaxFrameSize {
		return fmt.Errorf("%w: %d bytes", wire.ErrFrameTooLarge, len(frame))
	}
	l, ok := e.links[to]
	if !ok {
		return fmt.Errorf("transport: no peer p%d in p%d's config", to, e.cfg.Self)
	}
	l.enqueue(frame)
	return nil
}

// Recv implements Transport.
func (e *TCPEndpoint) Recv() <-chan []byte { return e.box.out }

// Connected returns the set of peers with an established outbound
// connection (dialed and hello written) right now.
func (e *TCPEndpoint) Connected() model.PIDSet {
	var s model.PIDSet
	for id, l := range e.links {
		l.mu.Lock()
		if l.conn != nil {
			s.Add(id)
		}
		l.mu.Unlock()
	}
	return s
}

// LinkError returns the last connection error of the link to peer (nil
// if the link never failed or the peer is unknown). The error names
// both endpoints of the failing link.
func (e *TCPEndpoint) LinkError(to model.ProcessID) error {
	l, ok := e.links[to]
	if !ok {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.lastErr
}

// Close implements Transport: it stops the listener, cancels in-flight
// dials, severs every connection, and waits for every goroutine the
// endpoint ever started — accept loop, inbound readers, link writers —
// to exit before closing the mailbox. Shutdown is deterministic: no
// goroutine outlives Close, so -race tests can tear clusters down
// mid-traffic without flakes.
func (e *TCPEndpoint) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	inbound := make([]net.Conn, 0, len(e.inbound))
	for c := range e.inbound {
		inbound = append(inbound, c)
	}
	e.mu.Unlock()
	close(e.done)
	e.dialCancel()
	err := e.ln.Close()
	for _, c := range inbound {
		_ = c.Close()
	}
	for _, l := range e.links {
		l.sever(nil)
	}
	e.wg.Wait()
	e.box.close()
	return err
}

// logf forwards to the options' diagnostics sink.
func (e *TCPEndpoint) logf(format string, args ...any) { e.opts.Logf(format, args...) }

// acceptLoop accepts inbound connections; each is handshake-checked and
// then pumped into the mailbox until it closes.
func (e *TCPEndpoint) acceptLoop() {
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		for {
			conn, err := e.ln.Accept()
			if err != nil {
				return
			}
			if tc, ok := conn.(*net.TCPConn); ok {
				// The round protocol exchanges small frames at high
				// rate; Nagle would batch them behind ACK delays.
				_ = tc.SetNoDelay(true)
			}
			e.mu.Lock()
			if e.closed {
				e.mu.Unlock()
				_ = conn.Close()
				return
			}
			e.inbound[conn] = struct{}{}
			e.mu.Unlock()
			e.wg.Add(1)
			go func() {
				defer e.wg.Done()
				e.serveInbound(conn)
			}()
		}
	}()
}

// serveInbound validates one accepted connection's hello and then pumps
// its frames into the mailbox. One wire.FrameReader reads the hello and
// every frame after it, so the frames share the reader's chunks instead
// of costing an allocation and two reads each. A connection that fails
// the handshake — wrong cluster, invalid sender, no hello within the
// deadline — is closed without ever reaching the mailbox.
func (e *TCPEndpoint) serveInbound(conn net.Conn) {
	defer func() {
		e.mu.Lock()
		delete(e.inbound, conn)
		e.mu.Unlock()
		_ = conn.Close()
	}()
	//indulgence:wallclock socket deadlines are enforced by the kernel against wall time
	_ = conn.SetReadDeadline(time.Now().Add(handshakeTimeout))
	frames := wire.NewFrameReader(conn)
	frame, err := frames.Next()
	if err != nil {
		e.logf("transport: p%d: inbound %s: no hello: %v", e.cfg.Self, conn.RemoteAddr(), err)
		return
	}
	hello, _, err := wire.DecodeHelloRecord(frame)
	if err != nil {
		e.logf("transport: p%d: inbound %s: bad hello: %v", e.cfg.Self, conn.RemoteAddr(), err)
		return
	}
	if hello.Cluster != e.cfg.ClusterID() {
		e.logf("transport: p%d: inbound %s: cluster %q, want %q — refused",
			e.cfg.Self, conn.RemoteAddr(), hello.Cluster, e.cfg.ClusterID())
		return
	}
	if int(hello.Sender) > e.cfg.N() || hello.Sender == e.cfg.Self {
		e.logf("transport: p%d: inbound %s: sender p%d is not a peer — refused",
			e.cfg.Self, conn.RemoteAddr(), hello.Sender)
		return
	}
	// Ack with our own hello: the dialer treats the connection as live
	// only once this lands, so refusals above are visible as dial
	// failures on the other side instead of silent frame loss.
	ack, err := e.hello()
	if err != nil {
		e.logf("transport: p%d: inbound %s: ack: %v", e.cfg.Self, conn.RemoteAddr(), err)
		return
	}
	//indulgence:wallclock socket deadlines are enforced by the kernel against wall time
	_ = conn.SetWriteDeadline(time.Now().Add(handshakeTimeout))
	if _, err := conn.Write(ack); err != nil {
		e.logf("transport: p%d: inbound %s: ack: %v", e.cfg.Self, conn.RemoteAddr(), err)
		return
	}
	_ = conn.SetWriteDeadline(time.Time{})
	_ = conn.SetReadDeadline(time.Time{})
	for {
		frame, err := frames.Next()
		if err != nil {
			return
		}
		e.box.put(frame)
	}
}

// hello returns the endpoint's hello record (cluster ID and self) as
// one length-prefixed frame, so either side of the handshake sends it
// in a single Write: the dialer as its opening, the acceptor as its
// ack.
func (e *TCPEndpoint) hello() ([]byte, error) {
	rec, err := wire.AppendHelloRecord(nil, wire.HelloRecord{Cluster: e.cfg.ClusterID(), Sender: e.cfg.Self})
	if err != nil {
		return nil, err
	}
	return wire.AppendFrame(nil, rec)
}

// peerLink is one sender-owned outbound connection: an unbounded FIFO of
// frames drained by a writer goroutine that dials (and redials) the peer.
// The unbounded queue mirrors the mailbox's contract — a sender must
// never block on a slow or dead peer, and frames are not dropped while
// the endpoint lives.
type peerLink struct {
	ep   *TCPEndpoint
	peer model.ProcessID
	addr string
	wake chan struct{}

	mu      sync.Mutex
	queue   fifo
	conn    net.Conn // live outbound connection, severed by Close
	lastErr error

	// pace is the reconnect pacing state (see reconnectPacer), and batch
	// the frames of the write in progress, copied out of queue; both are
	// touched only by the writer goroutine.
	pace  reconnectPacer
	batch [][]byte
}

// enqueue appends a frame for the writer goroutine.
func (l *peerLink) enqueue(frame []byte) {
	l.mu.Lock()
	l.queue.push(frame)
	l.mu.Unlock()
	select {
	case l.wake <- struct{}{}:
	default:
	}
}

// maxWriteBatch bounds how many queued frames one connection write may
// coalesce. Coalescing matters: the round protocol fans small frames
// out at high rate, and one syscall per drained batch beats one per
// frame whenever a queue builds up.
const maxWriteBatch = 64

// run is the link's writer loop: wait for frames, ensure a connection,
// coalesce the queued prefix into one write, pop what was written.
// Frames interrupted by a broken connection stay at the head of the
// queue and are retried on the next connection, so per-link FIFO order
// survives reconnects (the receiver may see a duplicated prefix of the
// interrupted batch, which the round protocol's receive-set dedupe
// absorbs).
func (l *peerLink) run() {
	defer l.ep.wg.Done()
	var buf []byte
	for {
		frames, ok := l.peekBatch()
		if !ok {
			return
		}
		conn := l.ensureConn()
		if conn == nil {
			return // endpoint closing
		}
		buf = buf[:0]
		for _, f := range frames {
			// Send already bounds frame sizes; AppendFrame cannot fail.
			buf, _ = wire.AppendFrame(buf, f)
		}
		clear(frames) // the batch must not pin frames once they are copied
		if _, err := conn.Write(buf); err != nil {
			l.sever(fmt.Errorf("transport: write p%d->p%d: %w", l.ep.cfg.Self, l.peer, err))
			continue
		}
		l.popN(len(frames))
		l.pace.wrote(l.ep.opts.Clock.Now())
	}
}

// peekBatch blocks until frames are queued, copying up to
// maxWriteBatch of them into the link's batch without removing any, or
// reports the endpoint closed.
func (l *peerLink) peekBatch() ([][]byte, bool) {
	for {
		l.mu.Lock()
		if l.queue.len() > 0 {
			l.batch = l.queue.peek(l.batch[:0], maxWriteBatch)
			l.mu.Unlock()
			return l.batch, true
		}
		l.mu.Unlock()
		select {
		case <-l.wake:
		case <-l.ep.done:
			return nil, false
		}
	}
}

// popN removes the n frames peekBatch returned after a successful write.
func (l *peerLink) popN(n int) {
	l.mu.Lock()
	l.queue.drop(n)
	l.mu.Unlock()
}

// ensureConn returns the live connection, dialing with bounded backoff
// until one lands or the endpoint closes (nil). Backoff state lives on
// the link, not the call: it grows whenever attempts would come faster
// than the current backoff — failed dials and connections that died
// young alike — and is reset by the writer only once a connection
// proves itself (a successful write past RetryMax of age).
func (l *peerLink) ensureConn() net.Conn {
	l.mu.Lock()
	conn := l.conn
	l.mu.Unlock()
	for conn == nil {
		select {
		case <-l.ep.done:
			return nil
		default:
		}
		// Space attempts by the current backoff since the last one —
		// this paces failed dials and connections that died young
		// alike — and double the backoff once a gap has actually been
		// served, so the "retrying in" the failure below logs is the
		// wait the next attempt really observes.
		clk := l.ep.opts.Clock
		if wait := l.pace.wait(clk.Now()); wait > 0 {
			t := clk.NewTimer(wait)
			select {
			case <-t.C():
			case <-l.ep.done:
				t.Stop()
				return nil
			}
			l.pace.served()
		}
		l.pace.dialed(clk.Now())
		c, err := l.dialOnce()
		if err != nil {
			l.mu.Lock()
			l.lastErr = err
			l.mu.Unlock()
			l.ep.logf("%v (retrying in %s)", err, l.pace.current())
			continue
		}
		l.mu.Lock()
		select {
		case <-l.ep.done:
			l.mu.Unlock()
			_ = c.Close()
			return nil
		default:
		}
		l.conn = c
		l.mu.Unlock()
		conn = c
		l.pace.connected(l.ep.opts.Clock.Now())
		l.watch(c)
	}
	return conn
}

// watch severs the link the moment the peer closes the connection.
// Outbound connections are write-only — the peer never sends on them —
// so a blocked Read doubles as a free death detector: it returns
// exactly when the connection breaks (FIN, RST, or local close), which
// stops the writer from flushing queued frames into a dead socket long
// before a write would notice.
func (l *peerLink) watch(conn net.Conn) {
	l.ep.wg.Add(1)
	go func() {
		defer l.ep.wg.Done()
		buf := make([]byte, 1)
		_, err := conn.Read(buf)
		if err == nil {
			err = fmt.Errorf("unexpected inbound data")
		}
		l.severConn(conn, fmt.Errorf("transport: link p%d->p%d down: %w", l.ep.cfg.Self, l.peer, err))
	}()
}

// dialOnce makes one bounded connection attempt and performs the
// dialer's half of the two-way handshake: send our hello, then require
// the acceptor's hello back before the connection counts as live. The
// ack is what makes rejection visible — an acceptor that refuses the
// hello (wrong cluster, invalid sender) closes without answering, so
// the dial FAILS here, queued frames stay queued, and the backoff paces
// the retries; without it, frames written into a rejected socket would
// be silently lost. It also proves we reached the peer we addressed:
// an ack from the wrong process ID means the address map is stale.
// Every error names the link's endpoints.
func (l *peerLink) dialOnce() (net.Conn, error) {
	d := net.Dialer{Timeout: l.ep.opts.DialTimeout}
	conn, err := d.DialContext(l.ep.dialCtx, "tcp", l.addr)
	if err != nil {
		return nil, fmt.Errorf("transport: dial p%d->p%d (%s): %w", l.ep.cfg.Self, l.peer, l.addr, err)
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		_ = tc.SetNoDelay(true) // small round frames must not wait out Nagle
	}
	fail := func(err error) (net.Conn, error) {
		_ = conn.Close()
		return nil, fmt.Errorf("transport: handshake p%d->p%d (%s): %w", l.ep.cfg.Self, l.peer, l.addr, err)
	}
	hello, err := l.ep.hello()
	if err != nil {
		return fail(err)
	}
	//indulgence:wallclock socket deadlines are enforced by the kernel against wall time
	deadline := time.Now().Add(handshakeTimeout)
	_ = conn.SetDeadline(deadline)
	if _, err := conn.Write(hello); err != nil {
		return fail(err)
	}
	ackFrame, err := wire.NewFrameReader(conn).Next()
	if err != nil {
		return fail(fmt.Errorf("no hello ack (refused?): %w", err))
	}
	ack, _, err := wire.DecodeHelloRecord(ackFrame)
	if err != nil {
		return fail(err)
	}
	if ack.Cluster != l.ep.cfg.ClusterID() {
		return fail(fmt.Errorf("peer is in cluster %q, want %q", ack.Cluster, l.ep.cfg.ClusterID()))
	}
	if ack.Sender != l.peer {
		return fail(fmt.Errorf("address answered as p%d, want p%d (stale peer map?)", ack.Sender, l.peer))
	}
	_ = conn.SetDeadline(time.Time{})
	return conn, nil
}

// sever tears the live connection down (recording why), so the writer
// redials. Close calls it with a nil reason to unblock a writer stuck
// in a write.
func (l *peerLink) sever(reason error) { l.severConn(nil, reason) }

// severConn severs only if the live connection is still conn (nil
// matches any), so a watchdog for a connection already replaced by a
// redial cannot tear the fresh one down.
func (l *peerLink) severConn(conn net.Conn, reason error) {
	l.mu.Lock()
	if conn != nil && l.conn != conn {
		l.mu.Unlock()
		_ = conn.Close()
		return
	}
	live := l.conn
	l.conn = nil
	if reason != nil {
		l.lastErr = reason
	}
	l.mu.Unlock()
	if live != nil {
		_ = live.Close()
	}
	if reason != nil && live != nil {
		l.ep.logf("%v (will reconnect)", reason)
	}
}

// TCPCluster runs n processes of one OS process as TCP endpoints on the
// loopback interface, each listening on an ephemeral port — the
// in-process convenience constructor the tests, benchmarks and
// single-machine CLI modes use. The endpoints are real TCPEndpoints
// built from a shared PeerConfig, so the loopback cluster exercises the
// exact listener/dialer/handshake/reconnect path a multi-process
// deployment runs.
type TCPCluster struct {
	n     int
	nodes []*TCPEndpoint
}

// NewTCPCluster binds n loopback listeners on ephemeral ports and
// builds one endpoint per process from the resulting peer list.
// Connections are dialed lazily on first send.
func NewTCPCluster(n int) (*TCPCluster, error) {
	if n < 1 || n > model.MaxProcesses {
		return nil, fmt.Errorf("transport: invalid cluster size %d", n)
	}
	lns := make([]net.Listener, n)
	peers := make([]Peer, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			for _, l := range lns[:i] {
				_ = l.Close()
			}
			return nil, fmt.Errorf("transport: listen for p%d: %w", i+1, err)
		}
		lns[i] = ln
		peers[i] = Peer{ID: model.ProcessID(i + 1), Addr: ln.Addr().String()}
	}
	c := &TCPCluster{n: n, nodes: make([]*TCPEndpoint, n)}
	for i := 0; i < n; i++ {
		cfg := PeerConfig{Self: model.ProcessID(i + 1), Peers: peers}
		c.nodes[i] = newTCPEndpoint(lns[i], cfg, TCPOptions{})
	}
	return c, nil
}

// Endpoint returns the transport endpoint of process p.
func (c *TCPCluster) Endpoint(p model.ProcessID) (Transport, error) {
	if p < 1 || int(p) > c.n {
		return nil, fmt.Errorf("transport: no endpoint %d in cluster of %d", p, c.n)
	}
	return c.nodes[p-1], nil
}

// Close shuts down every endpoint.
func (c *TCPCluster) Close() error {
	var firstErr error
	for _, ep := range c.nodes {
		if ep == nil {
			continue
		}
		if err := ep.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
