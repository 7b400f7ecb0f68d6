package transport

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"indulgence/internal/model"
	"indulgence/internal/wire"
)

func recvWithTimeout(t *testing.T, tr Transport, d time.Duration) []byte {
	t.Helper()
	select {
	case frame, ok := <-tr.Recv():
		if !ok {
			t.Fatal("transport closed")
		}
		return frame
	case <-time.After(d):
		t.Fatal("timed out waiting for a frame")
		return nil
	}
}

func TestHubDelivery(t *testing.T) {
	hub, err := NewHub(3)
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	a, err := hub.Endpoint(1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := hub.Endpoint(2)
	if err != nil {
		t.Fatal(err)
	}
	if a.Self() != 1 || b.Self() != 2 {
		t.Fatal("Self() wrong")
	}
	if err := a.Send(2, []byte("hi")); err != nil {
		t.Fatal(err)
	}
	if got := recvWithTimeout(t, b, time.Second); string(got) != "hi" {
		t.Fatalf("got %q", got)
	}
	// Self-send loops back.
	if err := a.Send(1, []byte("self")); err != nil {
		t.Fatal(err)
	}
	if got := recvWithTimeout(t, a, time.Second); string(got) != "self" {
		t.Fatalf("got %q", got)
	}
	// Unknown destination errors.
	if err := a.Send(9, []byte("x")); err == nil {
		t.Fatal("send to unknown process succeeded")
	}
}

func TestHubFIFOWithoutDelays(t *testing.T) {
	hub, err := NewHub(2)
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	a, _ := hub.Endpoint(1)
	b, _ := hub.Endpoint(2)
	for i := byte(0); i < 100; i++ {
		if err := a.Send(2, []byte{i}); err != nil {
			t.Fatal(err)
		}
	}
	for i := byte(0); i < 100; i++ {
		got := recvWithTimeout(t, b, time.Second)
		if got[0] != i {
			t.Fatalf("frame %d arrived as %d (FIFO broken)", i, got[0])
		}
	}
}

func TestHubDelayInjection(t *testing.T) {
	hub, err := NewHub(2)
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	a, _ := hub.Endpoint(1)
	b, _ := hub.Endpoint(2)
	hub.DelayProcess(1, 50*time.Millisecond)
	start := time.Now()
	if err := a.Send(2, []byte("slow")); err != nil {
		t.Fatal(err)
	}
	got := recvWithTimeout(t, b, time.Second)
	if elapsed := time.Since(start); elapsed < 40*time.Millisecond {
		t.Fatalf("delayed frame arrived after %v", elapsed)
	}
	if string(got) != "slow" {
		t.Fatalf("got %q", got)
	}
	// Heal removes the delay.
	hub.Heal()
	start = time.Now()
	if err := a.Send(2, []byte("fast")); err != nil {
		t.Fatal(err)
	}
	recvWithTimeout(t, b, time.Second)
	if elapsed := time.Since(start); elapsed > 30*time.Millisecond {
		t.Fatalf("healed frame took %v", elapsed)
	}
}

func TestHubClose(t *testing.T) {
	hub, err := NewHub(2)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := hub.Endpoint(1)
	if err := hub.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(2, []byte("x")); err == nil {
		t.Fatal("send after close succeeded")
	}
	// Recv channel is closed.
	select {
	case _, ok := <-a.Recv():
		if ok {
			t.Fatal("unexpected frame after close")
		}
	case <-time.After(time.Second):
		t.Fatal("recv channel not closed")
	}
	// Idempotent close.
	if err := hub.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestHubBounds(t *testing.T) {
	if _, err := NewHub(0); err == nil {
		t.Fatal("empty hub accepted")
	}
	hub, err := NewHub(2)
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	if _, err := hub.Endpoint(3); err == nil {
		t.Fatal("out-of-range endpoint accepted")
	}
}

func TestTCPClusterRoundTrip(t *testing.T) {
	c, err := NewTCPCluster(3)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	a, err := c.Endpoint(1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Endpoint(2)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Send(2, []byte("over tcp")); err != nil {
		t.Fatal(err)
	}
	if got := recvWithTimeout(t, b, 2*time.Second); string(got) != "over tcp" {
		t.Fatalf("got %q", got)
	}
	// Self-send short-circuits.
	if err := b.Send(2, []byte("loop")); err != nil {
		t.Fatal(err)
	}
	if got := recvWithTimeout(t, b, 2*time.Second); string(got) != "loop" {
		t.Fatalf("got %q", got)
	}
	// Bidirectional.
	if err := b.Send(1, []byte("back")); err != nil {
		t.Fatal(err)
	}
	if got := recvWithTimeout(t, a, 2*time.Second); string(got) != "back" {
		t.Fatalf("got %q", got)
	}
}

// tcpTestFrame is frame i of TestTCPFramesIntact's stream from p: its
// size cycles through 1 B, 26 B (a round frame) and, now and then,
// 4 KiB + 1 (past the reader's chunk) and wire.MaxFrameSize, and its
// bytes depend on p and i, so a frame lost, reordered or overwritten
// shows.
func tcpTestFrame(p model.ProcessID, i int) []byte {
	size := 1
	switch {
	case i%1000 == 999:
		size = wire.MaxFrameSize
	case i%100 == 50:
		size = 4<<10 + 1
	case i%2 == 1:
		size = 26
	}
	b := make([]byte, size)
	for j := range b {
		b[j] = byte(int(p)*101 + i*31 + j*7)
	}
	return b
}

// TestTCPFramesIntact sends 5,000 frames of mixed sizes each way over
// one TCP pair: every frame arrives intact and in per-link order, and
// every received frame, kept until the end, still holds its original
// bytes then — the inbound reader's chunks are never written under a
// frame it handed out.
func TestTCPFramesIntact(t *testing.T) {
	const count = 5000
	c, err := NewTCPCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var eps [2]Transport
	for i := range eps {
		if eps[i], err = c.Endpoint(model.ProcessID(i + 1)); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for i, ep := range eps {
		from, to := model.ProcessID(i+1), model.ProcessID(2-i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < count; k++ {
				if err := ep.Send(to, tcpTestFrame(from, k)); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	var kept [2][][]byte
	for i, ep := range eps {
		from := model.ProcessID(2 - i)
		for k := 0; k < count; k++ {
			got := recvWithTimeout(t, ep, 30*time.Second)
			if !bytes.Equal(got, tcpTestFrame(from, k)) {
				t.Fatalf("p%d: frame %d from p%d: %d bytes, want %d bytes of frame %d", i+1, k, from, len(got), len(tcpTestFrame(from, k)), k)
			}
			kept[i] = append(kept[i], got)
		}
	}
	wg.Wait()
	for i := range kept {
		for k, got := range kept[i] {
			if from := model.ProcessID(2 - i); !bytes.Equal(got, tcpTestFrame(from, k)) {
				t.Fatalf("p%d: frame %d from p%d changed after it was received", i+1, k, from)
			}
		}
	}
}

func TestTCPClusterClose(t *testing.T) {
	c, err := NewTCPCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := c.Endpoint(1)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(2, []byte("x")); err == nil {
		t.Fatal("send after close succeeded")
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestMailboxAfterClose(t *testing.T) {
	m := newMailbox()
	m.put([]byte("a"))
	m.close()
	m.put([]byte("b")) // no-op, no panic
	// Drain whatever was pumped before close; the channel must close.
	deadline := time.After(time.Second)
	for {
		select {
		case _, ok := <-m.out:
			if !ok {
				return
			}
		case <-deadline:
			t.Fatal("mailbox did not close")
		}
	}
}

func TestHubConcurrentSenders(t *testing.T) {
	hub, err := NewHub(4)
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	receiver, _ := hub.Endpoint(4)
	const perSender = 200
	for i := 1; i <= 3; i++ {
		ep, _ := hub.Endpoint(model.ProcessID(i))
		go func(e Transport) {
			for j := 0; j < perSender; j++ {
				_ = e.Send(4, []byte{byte(e.Self())})
			}
		}(ep)
	}
	for i := 0; i < 3*perSender; i++ {
		recvWithTimeout(t, receiver, 2*time.Second)
	}
}

// checkFIFO compares q against the oracle and checks that every ring
// slot outside the live window is nil (a popped frame is not pinned).
func checkFIFO(t *testing.T, step int, q *fifo, oracle [][]byte) {
	t.Helper()
	if q.len() != len(oracle) {
		t.Fatalf("step %d: len %d, oracle %d", step, q.len(), len(oracle))
	}
	if got := q.peek(nil, len(oracle)); !slices.EqualFunc(got, oracle, bytes.Equal) {
		t.Fatalf("step %d: queue %q, oracle %q", step, got, oracle)
	}
	if len(q.ring)&(len(q.ring)-1) != 0 {
		t.Fatalf("step %d: ring size %d is not a power of two", step, len(q.ring))
	}
	for i := q.count; i < len(q.ring); i++ {
		if q.ring[(q.head+i)&(len(q.ring)-1)] != nil {
			t.Fatalf("step %d: dead slot %d still holds a frame", step, i)
		}
	}
}

// TestFIFOMatchesSliceOracle drives the ring through random pushes,
// pops, batched peek-and-drops and resets against a plain slice, so
// wraparound (pops then pushes) and growth (a push into a full,
// wrapped ring) both occur many times.
func TestFIFOMatchesSliceOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var (
		q       fifo
		oracle  [][]byte
		wrapped int
		grown   int
	)
	for step := 0; step < 20000; step++ {
		switch r := rng.Intn(100); {
		case r < 55:
			frame := []byte(fmt.Sprint(step))
			if q.count == len(q.ring) && q.head != 0 {
				grown++
			}
			q.push(frame)
			oracle = append(oracle, frame)
		case r < 85:
			if len(oracle) == 0 {
				continue
			}
			if got := q.pop(); !bytes.Equal(got, oracle[0]) {
				t.Fatalf("step %d: pop %q, oracle %q", step, got, oracle[0])
			}
			oracle = oracle[1:]
		case r < 99:
			n := min(rng.Intn(6), len(oracle))
			if got := q.peek(nil, n); !slices.EqualFunc(got, oracle[:n], bytes.Equal) {
				t.Fatalf("step %d: peek %q, oracle %q", step, got, oracle[:n])
			}
			q.drop(n)
			oracle = oracle[n:]
		default:
			q, oracle = fifo{}, nil
		}
		if q.head+q.count > len(q.ring) {
			wrapped++
		}
		checkFIFO(t, step, &q, oracle)
	}
	if wrapped == 0 || grown == 0 {
		t.Fatalf("wrapped %d steps, grew %d wrapped rings: the walk missed a case", wrapped, grown)
	}
}

// TestHubCloseReleasesWrappedFrames closes a hub while a mailbox's ring
// holds frames wrapped around its end: the in-flight count must return
// to zero, covering the frames queued and the one its pump holds.
func TestHubCloseReleasesWrappedFrames(t *testing.T) {
	hub, err := NewHub(2)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := hub.Endpoint(1)
	b, _ := hub.Endpoint(2)
	box := hub.boxes[1]
	ring := func() (head, count, size int) {
		box.mu.Lock()
		defer box.mu.Unlock()
		return box.queue.head, box.queue.count, len(box.queue.ring)
	}
	// Advance the ring's head: three frames in, two received, the third
	// held by the pump.
	for i := byte(0); i < 3; i++ {
		if err := a.Send(2, []byte{i}); err != nil {
			t.Fatal(err)
		}
	}
	recvWithTimeout(t, b, time.Second)
	recvWithTimeout(t, b, time.Second)
	waitFor(t, "pump to take the third frame", func() bool { _, count, _ := ring(); return count == 0 })
	head, _, size := ring()
	// Fill past the ring's end without growing it.
	for i := 0; i <= size-head; i++ {
		if err := a.Send(2, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if head, count, size := ring(); head+count <= size || count > size {
		t.Fatalf("ring head %d count %d size %d: not wrapped", head, count, size)
	}
	if got, want := hub.pending.Load(), int64(size-head+2); got != want {
		t.Fatalf("pending %d before close, want %d", got, want)
	}
	if err := hub.Close(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "in-flight count to drain", func() bool { return hub.pending.Load() == 0 })
}
