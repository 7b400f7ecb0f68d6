package transport

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"indulgence/internal/metrics"
	"indulgence/internal/model"
	"indulgence/internal/payload"
	"indulgence/internal/wire"
)

// waitFor polls cond until it holds, failing the test after 5 seconds —
// readiness polling in place of fixed sleeps, so tests synchronize on
// the condition they actually need instead of on scheduler luck.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// hasStream reports whether m tracks a stream for an instance (opened
// or buffering) — the sign that the router has seen the instance's
// first frame.
func hasStream(m *Mux, instance uint64) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, ok := m.streams[instance]
	return ok
}

// queuedFrames returns how many frames sit in an instance's stream
// mailbox queue. The mailbox pump holds one more in hand once a
// frame has arrived, so "all k arrived" reads as queued >= k-1.
func queuedFrames(m *Mux, instance uint64) int {
	m.mu.Lock()
	s := m.streams[instance]
	m.mu.Unlock()
	if s == nil {
		return 0
	}
	s.box.mu.Lock()
	defer s.box.mu.Unlock()
	return s.box.queue.len()
}

// retiredState returns the mux's retirement frontier and
// the size of the shared set of retirements above them.
func retiredState(m *Mux) (below uint64, setLen int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.below, len(m.retired)
}

// msgFrame builds a minimal valid version-0 frame (a bare wire message).
func msgFrame(t *testing.T, from model.ProcessID, round model.Round) []byte {
	t.Helper()
	frame, err := wire.EncodeMessage(nil, model.Message{From: from, Round: round})
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// recvFrame pulls one frame from a virtual endpoint with a deadline.
func recvFrame(t *testing.T, ep Transport) []byte {
	t.Helper()
	select {
	case frame, ok := <-ep.Recv():
		if !ok {
			t.Fatal("receive channel closed")
		}
		return frame
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for frame")
		return nil
	}
}

// muxPair builds a 2-process hub with one mux per endpoint.
func muxPair(t *testing.T) (*Hub, *Mux, *Mux) {
	t.Helper()
	hub, err := NewHub(2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = hub.Close() })
	ep1, err := hub.Endpoint(1)
	if err != nil {
		t.Fatal(err)
	}
	ep2, err := hub.Endpoint(2)
	if err != nil {
		t.Fatal(err)
	}
	m1, m2 := NewMux(ep1, nil), NewMux(ep2, nil)
	t.Cleanup(func() { _ = m1.Close(); _ = m2.Close() })
	return hub, m1, m2
}

func TestMuxRoutesByInstance(t *testing.T) {
	_, m1, m2 := muxPair(t)
	sendA, err := m1.Open(1)
	if err != nil {
		t.Fatal(err)
	}
	sendB, err := m1.Open(2)
	if err != nil {
		t.Fatal(err)
	}
	recvA, err := m2.Open(1)
	if err != nil {
		t.Fatal(err)
	}
	recvB, err := m2.Open(2)
	if err != nil {
		t.Fatal(err)
	}

	fa, fb := msgFrame(t, 1, 10), msgFrame(t, 1, 20)
	if err := sendA.Send(2, fa); err != nil {
		t.Fatal(err)
	}
	if err := sendB.Send(2, fb); err != nil {
		t.Fatal(err)
	}
	if got := recvFrame(t, recvB); string(got) != string(fb) {
		t.Fatalf("instance 2 got % x, want % x", got, fb)
	}
	if got := recvFrame(t, recvA); string(got) != string(fa) {
		t.Fatalf("instance 1 got % x, want % x", got, fa)
	}
	if sendA.Self() != 1 || recvA.Self() != 2 {
		t.Fatalf("Self() = %d, %d", sendA.Self(), recvA.Self())
	}
}

// TestMuxBuffersUnopenedInstance pins the reliable-channel guarantee
// across multiplexing: frames for an instance the receiver has not opened
// yet are buffered and delivered at Open, not dropped.
func TestMuxBuffersUnopenedInstance(t *testing.T) {
	_, m1, m2 := muxPair(t)
	send, err := m1.Open(7)
	if err != nil {
		t.Fatal(err)
	}
	frame := msgFrame(t, 1, 3)
	if err := send.Send(2, frame); err != nil {
		t.Fatal(err)
	}
	// Wait until the router has seen (and is buffering) the early frame.
	waitFor(t, "router to buffer the early frame", func() bool { return hasStream(m2, 7) })
	recv, err := m2.Open(7)
	if err != nil {
		t.Fatal(err)
	}
	if got := recvFrame(t, recv); string(got) != string(frame) {
		t.Fatalf("buffered frame mangled: % x", got)
	}
}

// TestMuxLegacyInterop checks both directions of the version-0
// compatibility stream: bare frames from a non-muxed peer arrive on
// instance 0, and instance-0 sends go out as bare frames a non-muxed peer
// can read.
func TestMuxLegacyInterop(t *testing.T) {
	hub, err := NewHub(2)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = hub.Close() }()
	ep1, err := hub.Endpoint(1) // legacy peer: no mux
	if err != nil {
		t.Fatal(err)
	}
	ep2, err := hub.Endpoint(2)
	if err != nil {
		t.Fatal(err)
	}
	m2 := NewMux(ep2, nil)
	defer func() { _ = m2.Close() }()
	compat, err := m2.Open(0)
	if err != nil {
		t.Fatal(err)
	}

	frame := msgFrame(t, 1, 1)
	if err := ep1.Send(2, frame); err != nil {
		t.Fatal(err)
	}
	if got := recvFrame(t, compat); string(got) != string(frame) {
		t.Fatalf("legacy frame on instance 0: % x, want % x", got, frame)
	}

	reply := msgFrame(t, 2, 1)
	if err := compat.Send(1, reply); err != nil {
		t.Fatal(err)
	}
	if got := recvFrame(t, ep1); string(got) != string(reply) {
		t.Fatalf("legacy peer received % x, want bare % x", got, reply)
	}
}

func TestMuxRetire(t *testing.T) {
	_, m1, m2 := muxPair(t)
	send, err := m1.Open(3)
	if err != nil {
		t.Fatal(err)
	}
	recv, err := m2.Open(3)
	if err != nil {
		t.Fatal(err)
	}
	if err := recv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, ok := <-recv.Recv(); ok {
		t.Fatal("retired stream's receive channel still open")
	}
	// Late frames for a retired instance are dropped, not re-buffered.
	if err := send.Send(2, msgFrame(t, 1, 9)); err != nil {
		t.Fatal(err)
	}
	// A marker frame on a fresh instance proves the router has passed
	// the late frame: the hub mailbox and router are FIFO per sender.
	marker, err := m1.Open(4)
	if err != nil {
		t.Fatal(err)
	}
	if err := marker.Send(2, msgFrame(t, 1, 1)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "router to pass the late frame", func() bool { return hasStream(m2, 4) })
	if _, err := m2.Open(3); err == nil {
		t.Fatal("reopening a retired instance succeeded")
	}
	m2.mu.Lock()
	_, buffered := m2.streams[3]
	m2.mu.Unlock()
	if buffered {
		t.Fatal("late frame for retired instance re-created a stream")
	}
}

// TestMuxRetireCompaction checks that the retired-instance bookkeeping
// compacts to the frontier instead of growing with every instance:
// consecutive IDs retired out of order, then 30,000 retired in order.
func TestMuxRetireCompaction(t *testing.T) {
	m1 := NewMux(nopTransport{}, nil)
	defer m1.Close()
	// Retire 0..99 out of order in pairs: the set must fully compact.
	for i := 1; i < 100; i += 2 {
		m1.Retire(uint64(i))
	}
	for i := 0; i < 100; i += 2 {
		m1.Retire(uint64(i))
	}
	below, setLen := retiredState(m1)
	if below != 100 || setLen != 0 {
		t.Fatalf("retiredBelow=%d set=%d, want 100 and 0", below, setLen)
	}
	if _, err := m1.Open(42); err == nil {
		t.Fatal("opening a frontier-retired instance succeeded")
	}

	m := NewMux(nopTransport{}, nil)
	defer m.Close()
	for i := 0; i < 30000; i++ {
		m.Retire(uint64(i))
	}
	if below, setLen := retiredState(m); below != 30000 || setLen != 0 {
		t.Fatalf("in order: frontier %d, set %d; want 30000 and 0", below, setLen)
	}
}

func TestMuxDoubleOpen(t *testing.T) {
	_, m1, _ := muxPair(t)
	if _, err := m1.Open(1); err != nil {
		t.Fatal(err)
	}
	if _, err := m1.Open(1); err == nil {
		t.Fatal("double open succeeded")
	}
}

// TestMuxOverTCP runs the routing test over real loopback connections.
func TestMuxOverTCP(t *testing.T) {
	tc, err := NewTCPCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = tc.Close() }()
	ep1, err := tc.Endpoint(1)
	if err != nil {
		t.Fatal(err)
	}
	ep2, err := tc.Endpoint(2)
	if err != nil {
		t.Fatal(err)
	}
	m1, m2 := NewMux(ep1, nil), NewMux(ep2, nil)
	defer func() { _ = m1.Close(); _ = m2.Close() }()

	send, err := m1.Open(11)
	if err != nil {
		t.Fatal(err)
	}
	recv, err := m2.Open(11)
	if err != nil {
		t.Fatal(err)
	}
	frame := msgFrame(t, 1, 4)
	if err := send.Send(2, frame); err != nil {
		t.Fatal(err)
	}
	if got := recvFrame(t, recv); string(got) != string(frame) {
		t.Fatalf("TCP mux frame mangled: % x", got)
	}
}

// TestMuxUnderlyingClosePropagates checks that closing the underlying
// endpoint closes every virtual receive channel, so round loops observe
// the shutdown.
func TestMuxUnderlyingClosePropagates(t *testing.T) {
	hub, err := NewHub(2)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = hub.Close() }()
	ep1, err := hub.Endpoint(1)
	if err != nil {
		t.Fatal(err)
	}
	m1 := NewMux(ep1, nil)
	defer func() { _ = m1.Close() }()
	s, err := m1.Open(5)
	if err != nil {
		t.Fatal(err)
	}
	if err := ep1.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case _, ok := <-s.Recv():
		if ok {
			t.Fatal("got a frame after underlying close")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("virtual receive channel did not close")
	}
}

// TestMuxNeverOpenedBufferedInstance pins the fate of frames buffered
// for an instance that is never opened: Retire drops them without a
// goroutine or channel leak, and a mux Close with buffered-but-unopened
// streams closes their mailboxes too.
func TestMuxNeverOpenedBufferedInstance(t *testing.T) {
	_, m1, m2 := muxPair(t)
	send, err := m1.Open(9)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		if err := send.Send(2, msgFrame(t, 1, model.Round(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	// Wait for the router to buffer the frames for the unopened
	// instance (the pump holds one in hand, so 7 queued means all 8
	// arrived).
	waitFor(t, "router to buffer 8 frames", func() bool {
		return hasStream(m2, 9) && queuedFrames(m2, 9) >= 7
	})
	// Retiring the never-opened instance drops the buffer for good.
	m2.Retire(9)
	m2.mu.Lock()
	_, still := m2.streams[9]
	m2.mu.Unlock()
	if still {
		t.Fatal("retired unopened stream still tracked")
	}
	if _, err := m2.Open(9); err == nil {
		t.Fatal("opening a retired never-opened instance succeeded")
	}

	// And a Close with a buffered unopened stream must close its
	// mailbox (no pump goroutine left behind).
	if err := send.Send(2, msgFrame(t, 1, 99)); err == nil {
		// Frame for retired instance 9: dropped. Now buffer one for a
		// fresh never-opened instance and close the whole mux.
		send2, err := m1.Open(10)
		if err != nil {
			t.Fatal(err)
		}
		if err := send2.Send(2, msgFrame(t, 1, 1)); err != nil {
			t.Fatal(err)
		}
		waitFor(t, "router to buffer the unopened frame", func() bool { return hasStream(m2, 10) })
		if err := m2.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestMuxRetireMidFlight races inbound delivery against retirement: a
// sender floods an instance while the receiver retires it mid-stream.
// Frames must arrive until the retirement point and be dropped after it,
// with no panic, deadlock, or send error either side — the scenario of a
// finished instance's late round or relay traffic arriving at a service
// that has moved on. Run with -race, this is also the locking test for the
// router/Retire interleaving.
func TestMuxRetireMidFlight(t *testing.T) {
	_, m1, m2 := muxPair(t)
	send, err := m1.Open(4)
	if err != nil {
		t.Fatal(err)
	}
	recv, err := m2.Open(4)
	if err != nil {
		t.Fatal(err)
	}

	const flood = 200
	sendErr := make(chan error, 1)
	go func() {
		for i := 0; i < flood; i++ {
			if err := send.Send(2, msgFrame(t, 1, model.Round(i+1))); err != nil {
				sendErr <- err
				return
			}
		}
		sendErr <- nil
	}()

	// Consume a few frames to prove delivery, then retire mid-flood.
	for i := 0; i < 5; i++ {
		recvFrame(t, recv)
	}
	m2.Retire(4)
	if err := <-sendErr; err != nil {
		t.Fatalf("send during retirement: %v", err)
	}
	// The retired stream's channel must drain to closed, not wedge.
	deadline := time.After(5 * time.Second)
	for {
		select {
		case _, ok := <-recv.Recv():
			if !ok {
				return
			}
		case <-deadline:
			t.Fatal("retired stream's channel never closed")
		}
	}
}

// TestMuxCompactionRandomOrder retires a window of instances in a random
// permutation: whatever the order, the retired set must compact to the
// frontier with nothing left over — the property that keeps retirement
// state O(inflight) instead of O(lifetime). Then 30,000 instances
// complete out of order within a 64-wide window, as a service's
// MaxInflight slots do, and the set never holds more than the window.
func TestMuxCompactionRandomOrder(t *testing.T) {
	m1 := NewMux(nopTransport{}, nil)
	defer m1.Close()
	const window = 257
	rng := rand.New(rand.NewSource(42))
	for i, p := range rng.Perm(window) {
		m1.Retire(uint64(p))
		below, setLen := retiredState(m1)
		if int(below)+setLen != i+1 {
			t.Fatalf("after %d retirements: frontier %d + set %d != %d", i+1, below, setLen, i+1)
		}
	}
	below, setLen := retiredState(m1)
	if below != window || setLen != 0 {
		t.Fatalf("final state: retiredBelow=%d set=%d, want %d and 0", below, setLen, window)
	}

	const total, width = 30000, 64
	m := NewMux(nopTransport{}, nil)
	defer m.Close()
	for base := 0; base < total; base += width {
		for _, p := range rng.Perm(min(width, total-base)) {
			m.Retire(uint64(base + p))
			if _, setLen := retiredState(m); setLen > width {
				t.Fatalf("%d retired entries inside a %d-wide window", setLen, width)
			}
		}
	}
	if below, setLen = retiredState(m); below != total || setLen != 0 {
		t.Fatalf("windowed final state: frontier %d, set %d; want %d and 0", below, setLen, total)
	}
}

// TestMuxRetireBelow covers the recovery path's bulk retirement: opened
// and buffered streams below the frontier close, later instances are
// untouched, retirements already recorded above the frontier keep
// compacting, and the call is monotonic.
func TestMuxRetireBelow(t *testing.T) {
	_, m1, m2 := muxPair(t)
	low, err := m2.Open(1)
	if err != nil {
		t.Fatal(err)
	}
	high, err := m2.Open(8)
	if err != nil {
		t.Fatal(err)
	}
	// Buffer a frame for a never-opened stale instance (3) as a crashed
	// lifetime would leave behind.
	send3, err := m1.Open(3)
	if err != nil {
		t.Fatal(err)
	}
	if err := send3.Send(2, msgFrame(t, 1, 1)); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "router to buffer the stale frame", func() bool { return hasStream(m2, 3) })
	// An out-of-order retirement above the frontier, to be compacted
	// through.
	m2.Retire(5)

	m2.RetireBelow(5)

	if _, ok := <-low.Recv(); ok {
		t.Fatal("stream below frontier still delivering")
	}
	below, setLen := retiredState(m2)
	m2.mu.Lock()
	_, stale := m2.streams[3]
	m2.mu.Unlock()
	if below != 6 || setLen != 0 {
		t.Fatalf("retiredBelow=%d set=%d, want 6 (5 compacted through) and 0", below, setLen)
	}
	if stale {
		t.Fatal("buffered stale stream survived RetireBelow")
	}
	if _, err := m2.Open(2); err == nil {
		t.Fatal("opening below the frontier succeeded")
	}

	// Instances at or above the frontier are untouched.
	sendHigh, err := m1.Open(8)
	if err != nil {
		t.Fatal(err)
	}
	frame := msgFrame(t, 1, 2)
	if err := sendHigh.Send(2, frame); err != nil {
		t.Fatal(err)
	}
	if got := recvFrame(t, high); string(got) != string(frame) {
		t.Fatalf("instance above frontier got % x", got)
	}

	// Monotonic: lowering the frontier is a no-op.
	m2.RetireBelow(2)
	if below, _ = retiredState(m2); below != 6 {
		t.Fatalf("frontier regressed to %d", below)
	}
}

// TestMuxPendingNotification checks the join signal of multi-process
// members: frames for an unopened instance fire the callback (possibly
// repeatedly), and opened instances stop firing it.
func TestMuxPendingNotification(t *testing.T) {
	hub, err := NewHub(2)
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	a, _ := hub.Endpoint(1)
	b, _ := hub.Endpoint(2)

	notified := make(chan uint64, 16)
	ma := NewMux(a, nil)
	defer ma.Close()
	mb := NewMux(b, nil)
	mb.OnPending(func(instance uint64) {
		select {
		case notified <- instance:
		default:
		}
	})
	defer mb.Close()

	sa, err := ma.Open(7)
	if err != nil {
		t.Fatal(err)
	}
	if err := sa.Send(2, msgFrame(t, 1, 1)); err != nil {
		t.Fatal(err)
	}
	select {
	case got := <-notified:
		if got != 7 {
			t.Fatalf("pending instance %d, want 7", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no pending notification")
	}

	// Opening drains the buffered frame; further frames notify nobody.
	sb, err := mb.Open(7)
	if err != nil {
		t.Fatal(err)
	}
	recvFrame(t, sb)
	for len(notified) > 0 {
		<-notified
	}
	if err := sa.Send(2, msgFrame(t, 1, 2)); err != nil {
		t.Fatal(err)
	}
	recvFrame(t, sb)
	select {
	case got := <-notified:
		t.Fatalf("opened instance notified as pending: %d", got)
	case <-time.After(100 * time.Millisecond):
	}
}

// rawMuxPair builds a 2-process hub whose process 1 has no mux (a test
// writes raw frames on its endpoint) and whose process 2 has a mux.
func rawMuxPair(t *testing.T) (Transport, *Mux) {
	t.Helper()
	hub, err := NewHub(2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = hub.Close() })
	ep1, err := hub.Endpoint(1)
	if err != nil {
		t.Fatal(err)
	}
	ep2, err := hub.Endpoint(2)
	if err != nil {
		t.Fatal(err)
	}
	m2 := NewMux(ep2, nil)
	t.Cleanup(func() { _ = m2.Close() })
	return ep1, m2
}

// TestMuxRoutesByGroup checks that the instance ID is the whole
// address: non-consecutive IDs that a multi-group runtime once placed
// in different groups route apart over one mux.
func TestMuxRoutesByGroup(t *testing.T) {
	ep1, m2 := rawMuxPair(t)
	ids := []uint64{5, 6, 7, 9}
	recvs := make(map[uint64]Transport)
	for _, id := range ids {
		r, err := m2.Open(id)
		if err != nil {
			t.Fatal(err)
		}
		recvs[id] = r
	}
	// A distinct round number per instance, in the version-1 envelope
	// the mux writes.
	for i, id := range ids {
		frame := append(wire.AppendInstanceHeader(nil, id), msgFrame(t, 1, model.Round(i+1))...)
		if err := ep1.Send(2, frame); err != nil {
			t.Fatal(err)
		}
	}
	for i, id := range ids {
		want := msgFrame(t, 1, model.Round(i+1))
		if got := recvFrame(t, recvs[id]); string(got) != string(want) {
			t.Fatalf("instance %d got % x, want % x", id, got, want)
		}
	}
}

// TestMuxEmitsNoGroupEnvelope pins the outbound layouts of a mux:
// instance 0 sends the bare version-0 frame and every other instance
// the version-1 instance envelope — no frame carries a group.
func TestMuxEmitsNoGroupEnvelope(t *testing.T) {
	bare, err := wire.EncodeMessage(nil, broadcastMessage)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []uint64{0, 1, 5, 127, 1 << 30} {
		rec := newRecordingTransport()
		m := NewMux(rec, nil)
		s, err := m.Open(id)
		if err != nil {
			t.Fatal(err)
		}
		want := bare
		if id != 0 {
			want = append(wire.AppendInstanceHeader(nil, id), bare...)
		}
		if err := s.Send(2, bare); err != nil {
			t.Fatal(err)
		}
		if _, err := Broadcast(nil, s, 1, broadcastMessage); err != nil {
			t.Fatal(err)
		}
		_, frames := rec.sent()
		for i, f := range frames {
			if !bytes.Equal(f, want) {
				t.Fatalf("instance %d frame %d: % x, want % x", id, i, f, want)
			}
		}
		_ = m.Close()
	}
}

// TestMuxGroupNotify checks the join signal and its late installation:
// frames that reach unopened streams before OnPending is
// installed are signalled by the install itself, once per stream and in
// instance order, while open and retired instances signal nothing;
// later frames for a still-unopened stream signal from the router, and
// an opened stream never signals again.
func TestMuxGroupNotify(t *testing.T) {
	hub, err := NewHub(2)
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	a, _ := hub.Endpoint(1)
	b, _ := hub.Endpoint(2)

	ma := NewMux(a, nil)
	defer ma.Close()
	mb := NewMux(b, nil)
	defer mb.Close()

	senders := make(map[uint64]Transport)
	send := func(instance uint64) {
		t.Helper()
		s, ok := senders[instance]
		if !ok {
			var err error
			if s, err = ma.Open(instance); err != nil {
				t.Fatal(err)
			}
			senders[instance] = s
		}
		if err := s.Send(2, msgFrame(t, 1, 1)); err != nil {
			t.Fatal(err)
		}
	}
	open5, err := mb.Open(5)
	if err != nil {
		t.Fatal(err)
	}
	mb.Retire(7)
	for _, id := range []uint64{7, 5, 3, 2} {
		send(id)
	}
	recvFrame(t, open5)
	// One sender's frames route in order, so once 2 buffers every frame
	// above has been routed too.
	waitFor(t, "frame for instance 2 to buffer", func() bool { return hasStream(mb, 2) })

	notified := make(chan uint64, 16)
	mb.OnPending(func(instance uint64) {
		select {
		case notified <- instance:
		default:
		}
	})
	var replayed []uint64
	for len(notified) > 0 {
		replayed = append(replayed, <-notified)
	}
	if want := []uint64{2, 3}; !reflect.DeepEqual(replayed, want) {
		t.Fatalf("install signalled %v, want %v", replayed, want)
	}

	send(3)
	select {
	case got := <-notified:
		if got != 3 {
			t.Fatalf("router signalled %d, want 3", got)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no signal for a later frame of a pending stream")
	}

	// Opened, the two streams deliver what they buffered plus one new
	// frame each, and signal nothing.
	for _, p := range []struct {
		instance uint64
		frames   int
	}{{2, 2}, {3, 3}} {
		s, err := mb.Open(p.instance)
		if err != nil {
			t.Fatal(err)
		}
		send(p.instance)
		for i := 0; i < p.frames; i++ {
			recvFrame(t, s)
		}
	}
	select {
	case got := <-notified:
		t.Fatalf("open stream %d signalled", got)
	case <-time.After(100 * time.Millisecond):
	}
}

// TestMuxGroupOverTCP runs the routing of two neighbouring instances
// over real loopback connections: both share one TCP connection pair.
func TestMuxGroupOverTCP(t *testing.T) {
	tc, err := NewTCPCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = tc.Close() }()
	ep1, err := tc.Endpoint(1)
	if err != nil {
		t.Fatal(err)
	}
	ep2, err := tc.Endpoint(2)
	if err != nil {
		t.Fatal(err)
	}
	m1, m2 := NewMux(ep1, nil), NewMux(ep2, nil)
	defer func() { _ = m1.Close(); _ = m2.Close() }()

	for _, id := range []uint64{10, 11} {
		send, err := m1.Open(id)
		if err != nil {
			t.Fatal(err)
		}
		recv, err := m2.Open(id)
		if err != nil {
			t.Fatal(err)
		}
		frame := msgFrame(t, 1, model.Round(id))
		if err := send.Send(2, frame); err != nil {
			t.Fatal(err)
		}
		if got := recvFrame(t, recv); string(got) != string(frame) {
			t.Fatalf("TCP instance %d frame mangled: % x", id, got)
		}
	}
}

// recordingTransport records every Send; its receive channel never
// delivers, so a mux over it only sends.
type recordingTransport struct {
	mu     sync.Mutex
	to     []model.ProcessID
	frames [][]byte
	recv   chan []byte
}

func newRecordingTransport() *recordingTransport {
	return &recordingTransport{recv: make(chan []byte)}
}

func (r *recordingTransport) Self() model.ProcessID { return 1 }
func (r *recordingTransport) Recv() <-chan []byte   { return r.recv }
func (r *recordingTransport) Close() error          { return nil }

func (r *recordingTransport) Send(to model.ProcessID, frame []byte) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.to = append(r.to, to)
	r.frames = append(r.frames, frame)
	return nil
}

// sent returns the recorded destinations and frames so far.
func (r *recordingTransport) sent() ([]model.ProcessID, [][]byte) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]model.ProcessID(nil), r.to...), append([][]byte(nil), r.frames...)
}

// broadcastMessage is the round message the Broadcast tests send.
var broadcastMessage = model.Message{From: 2, Round: 5,
	Payload: payload.EstHalt{Est: -7, Halt: model.NewPIDSet(1, 3)}}

// TestBroadcastSharesOneFrame pins the fan-out: one Broadcast on a mux
// stream is n sends, in destination order, of one shared frame whose
// bytes equal the stream's single-frame Send of the bare encoding — the
// bare frame for instance 0, the version-1 envelope for any other — and
// each counts on the outbound counter.
func TestBroadcastSharesOneFrame(t *testing.T) {
	const n = 4
	bare, err := wire.EncodeMessage(nil, broadcastMessage)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []uint64{0, 7, 9} {
		rec := newRecordingTransport()
		m := NewMux(rec, metrics.NewRegistry())
		out := m.mOut
		s, err := m.Open(key)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Broadcast(nil, s, n, broadcastMessage); err != nil {
			t.Fatal(err)
		}
		to, frames := rec.sent()
		if len(frames) != n || out.Value() != n {
			t.Fatalf("%v: %d sends, %d counted, want %d", key, len(frames), out.Value(), n)
		}
		for i, f := range frames {
			if to[i] != model.ProcessID(i+1) {
				t.Fatalf("%v: send %d went to p%d", key, i, to[i])
			}
			if &f[0] != &frames[0][0] {
				t.Fatalf("%v: send %d has its own backing array", key, i)
			}
			if cap(f) != len(f) {
				t.Fatalf("%v: send %d has %d spare bytes a transport could append into", key, i, cap(f)-len(f))
			}
		}
		// The single-frame path is the reference for the wire bytes.
		if err := s.Send(1, bare); err != nil {
			t.Fatal(err)
		}
		_, frames = rec.sent()
		if want := frames[n]; !bytes.Equal(frames[0], want) {
			t.Fatalf("%v: broadcast frame % x, Send wraps % x", key, frames[0], want)
		}
		_ = m.Close()
	}
}

// nopTransport accepts and discards every frame.
type nopTransport struct{}

func (nopTransport) Self() model.ProcessID              { return 1 }
func (nopTransport) Send(model.ProcessID, []byte) error { return nil }
func (nopTransport) Recv() <-chan []byte                { return nil }
func (nopTransport) Close() error                       { return nil }

// TestBroadcastAllocatesOnce pins the encode-once, append-style
// contract: a broadcast to n processes into a buffer with spare
// capacity allocates nothing, and one into a nil buffer allocates once
// — the buffer its frame lands in — on a bare endpoint and on a mux
// stream alike. A broadcast into the returned buffer appends: the
// earlier frame keeps its place and its bytes.
func TestBroadcastAllocatesOnce(t *testing.T) {
	m := NewMux(nopTransport{}, nil)
	defer m.Close()
	s, err := m.Open(9)
	if err != nil {
		t.Fatal(err)
	}
	for name, ep := range map[string]Transport{"bare": nopTransport{}, "mux": s} {
		if allocs := testing.AllocsPerRun(100, func() {
			if _, err := Broadcast(nil, ep, 4, broadcastMessage); err != nil {
				t.Fatal(err)
			}
		}); allocs != 1 {
			t.Errorf("%s: Broadcast into a nil buffer allocates %v times, want 1", name, allocs)
		}
		spare := make([]byte, 0, 1<<10)
		if allocs := testing.AllocsPerRun(100, func() {
			if _, err := Broadcast(spare[:0], ep, 4, broadcastMessage); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("%s: Broadcast into spare capacity allocates %v times, want 0", name, allocs)
		}
		first, err := Broadcast(spare[:0], ep, 4, broadcastMessage)
		if err != nil {
			t.Fatal(err)
		}
		kept := bytes.Clone(first)
		second, err := Broadcast(first, ep, 4, broadcastMessage)
		if err != nil {
			t.Fatal(err)
		}
		if &second[0] != &first[0] || !bytes.Equal(second[:len(first)], kept) {
			t.Errorf("%s: the second broadcast moved or rewrote the first frame", name)
		}
		if !bytes.Equal(second[len(first):], kept) {
			t.Errorf("%s: frames % x then % x, want equal encodings", name, kept, second[len(first):])
		}
	}
}

// TestBroadcastClosedStream checks that a retired stream, and any
// stream of a closed mux, refuses a broadcast with ErrClosed before
// sending a single frame.
func TestBroadcastClosedStream(t *testing.T) {
	rec := newRecordingTransport()
	m := NewMux(rec, nil)
	retired, err := m.Open(1)
	if err != nil {
		t.Fatal(err)
	}
	live, err := m.Open(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := retired.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Broadcast(nil, retired, 4, broadcastMessage); !errors.Is(err, ErrClosed) {
		t.Fatalf("retired stream: %v, want ErrClosed", err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := Broadcast(nil, live, 4, broadcastMessage); !errors.Is(err, ErrClosed) {
		t.Fatalf("closed mux: %v, want ErrClosed", err)
	}
	if _, frames := rec.sent(); len(frames) != 0 {
		t.Fatalf("%d frames sent on closed streams", len(frames))
	}
}
