package transport

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"indulgence/internal/model"
)

func TestParsePeers(t *testing.T) {
	cfg, err := ParsePeers(2, "", " p2=127.0.0.1:9002, p1=127.0.0.1:9001 ,p3=127.0.0.1:9003")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.N() != 3 || cfg.Self != 2 || cfg.ClusterID() != DefaultCluster {
		t.Fatalf("parsed %+v", cfg)
	}
	// Peers come back sorted by ID regardless of spec order.
	for i, p := range cfg.Peers {
		if p.ID != model.ProcessID(i+1) {
			t.Fatalf("peer %d has id %d", i, p.ID)
		}
	}
	if addr, err := cfg.SelfAddr(); err != nil || addr != "127.0.0.1:9002" {
		t.Fatalf("self addr %q, %v", addr, err)
	}
	if _, err := cfg.Addr(9); err == nil {
		t.Fatal("address of unknown peer resolved")
	}
}

func TestParsePeersErrors(t *testing.T) {
	cases := []struct {
		name, spec string
		self       model.ProcessID
	}{
		{"empty", "", 1},
		{"only commas", " , ,", 1},
		{"no equals", "p1:127.0.0.1:9001", 1},
		{"name not pN", "q1=127.0.0.1:9001,p2=127.0.0.1:9002", 1},
		{"id zero", "p0=127.0.0.1:9000,p1=127.0.0.1:9001", 1},
		{"id not a number", "px=127.0.0.1:9001,p2=127.0.0.1:9002", 1},
		{"empty address", "p1=,p2=127.0.0.1:9002", 1},
		{"address without port", "p1=localhost,p2=127.0.0.1:9002", 1},
		{"duplicate id", "p1=127.0.0.1:9001,p1=127.0.0.1:9002", 1},
		{"duplicate address", "p1=127.0.0.1:9001,p2=127.0.0.1:9001", 1},
		{"sparse ids", "p1=127.0.0.1:9001,p3=127.0.0.1:9003", 1},
		{"single peer", "p1=127.0.0.1:9001", 1},
		{"self not a member", "p1=127.0.0.1:9001,p2=127.0.0.1:9002", 3},
	}
	for _, tc := range cases {
		if _, err := ParsePeers(tc.self, "", tc.spec); err == nil {
			t.Errorf("%s: ParsePeers(%d, %q) succeeded, want error", tc.name, tc.self, tc.spec)
		}
	}
}

func TestLoadPeerFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "peers.conf")
	content := "# local three-process cluster\np1=127.0.0.1:9001\n\np2=127.0.0.1:9002 # second\np3=127.0.0.1:9003\n"
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	cfg, err := LoadPeerFile(1, "prod", path)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.N() != 3 || cfg.Cluster != "prod" {
		t.Fatalf("loaded %+v", cfg)
	}
	if _, err := LoadPeerFile(1, "", filepath.Join(dir, "missing.conf")); err == nil {
		t.Fatal("missing file loaded")
	}
	empty := filepath.Join(dir, "empty.conf")
	if err := os.WriteFile(empty, []byte("# nothing here\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadPeerFile(1, "", empty); err == nil {
		t.Fatal("empty file loaded")
	}
}

// freeAddrs reserves n distinct loopback addresses by binding and
// immediately releasing ephemeral ports.
func freeAddrs(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		addrs[i] = ln.Addr().String()
		_ = ln.Close()
	}
	return addrs
}

// peerConfigs builds one PeerConfig per process over the given
// addresses.
func peerConfigs(cluster string, addrs []string) []PeerConfig {
	peers := make([]Peer, len(addrs))
	for i, a := range addrs {
		peers[i] = Peer{ID: model.ProcessID(i + 1), Addr: a}
	}
	cfgs := make([]PeerConfig, len(addrs))
	for i := range cfgs {
		cfgs[i] = PeerConfig{Self: model.ProcessID(i + 1), Cluster: cluster, Peers: peers}
	}
	return cfgs
}

func TestTCPEndpointHandshakeDelivery(t *testing.T) {
	cfgs := peerConfigs("hs", freeAddrs(t, 2))
	a, err := NewTCPEndpoint(cfgs[0], TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := NewTCPEndpoint(cfgs[1], TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	if err := a.Send(2, []byte("one")); err != nil {
		t.Fatal(err)
	}
	if got := recvWithTimeout(t, b, 5*time.Second); string(got) != "one" {
		t.Fatalf("got %q", got)
	}
	if err := b.Send(1, []byte("two")); err != nil {
		t.Fatal(err)
	}
	if got := recvWithTimeout(t, a, 5*time.Second); string(got) != "two" {
		t.Fatalf("got %q", got)
	}
	// Self-send short-circuits.
	if err := a.Send(1, []byte("self")); err != nil {
		t.Fatal(err)
	}
	if got := recvWithTimeout(t, a, 5*time.Second); string(got) != "self" {
		t.Fatalf("got %q", got)
	}
	// Unknown peer errors and names both ends.
	if err := a.Send(9, []byte("x")); err == nil || !strings.Contains(err.Error(), "p9") {
		t.Fatalf("send to unknown peer: %v", err)
	}
	if got := a.Connected(); !got.Has(2) {
		t.Fatalf("a's connected set %v", got)
	}
}

// TestTCPEndpointRefusesWrongCluster checks the handshake contract: a
// peer configured with a different cluster ID never gets its frames into
// the mailbox.
func TestTCPEndpointRefusesWrongCluster(t *testing.T) {
	addrs := freeAddrs(t, 2)
	right := peerConfigs("alpha", addrs)
	wrong := peerConfigs("beta", addrs)

	a, err := NewTCPEndpoint(right[0], TCPOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	imp, err := NewTCPEndpoint(wrong[1], TCPOptions{RetryMin: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer imp.Close()

	if err := imp.Send(1, []byte("evil")); err != nil {
		t.Fatal(err)
	}
	select {
	case f := <-a.Recv():
		t.Fatalf("wrong-cluster frame delivered: %q", f)
	case <-time.After(300 * time.Millisecond):
	}
	// The refusal is visible to the dialer: the handshake ack never
	// arrives, so the connection never counts as live and the link
	// records a handshake error instead of silently dropping frames.
	if imp.Connected().Has(1) {
		t.Fatal("refused connection counted as live")
	}
	if err := imp.LinkError(1); err == nil || !strings.Contains(err.Error(), "handshake") {
		t.Fatalf("refused handshake not surfaced: %v", err)
	}
}

// TestTCPEndpointReconnect is the crash/rejoin contract: frames sent
// while a peer is down are queued and flush once a fresh process listens
// on the same address again.
func TestTCPEndpointReconnect(t *testing.T) {
	cfgs := peerConfigs("rc", freeAddrs(t, 2))
	opts := TCPOptions{RetryMin: 10 * time.Millisecond, RetryMax: 50 * time.Millisecond}
	a, err := NewTCPEndpoint(cfgs[0], opts)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()

	b, err := NewTCPEndpoint(cfgs[1], opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Send(2, []byte("before")); err != nil {
		t.Fatal(err)
	}
	if got := recvWithTimeout(t, b, 5*time.Second); string(got) != "before" {
		t.Fatalf("got %q", got)
	}
	// Crash b: its listener and connections die with it. The watchdog
	// severs a's link within moments; wait for it so the outage frames
	// below are queued, not flushed into the dying socket (frames in
	// flight at the instant of a break are lost with it — the documented
	// at-most-once window).
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "link to the dead peer to sever", func() bool { return !a.Connected().Has(2) })

	// Frames sent into the outage queue without blocking or erroring —
	// more than two write batches of them, so the flush spans several
	// batches and the link's ring wraps and grows while it fills.
	outage := make([]string, 2*maxWriteBatch+5)
	for i := range outage {
		outage[i] = fmt.Sprintf("during-%d", i)
		if err := a.Send(2, []byte(outage[i])); err != nil {
			t.Fatalf("send during outage: %v", err)
		}
	}

	// The restarted peer (same address, fresh listener) receives the
	// queued frames, complete and in order, without anyone restarting
	// the cluster.
	b2, err := NewTCPEndpoint(cfgs[1], opts)
	if err != nil {
		t.Fatal(err)
	}
	defer b2.Close()
	for _, want := range outage {
		if got := recvWithTimeout(t, b2, 10*time.Second); string(got) != want {
			t.Fatalf("after restart got %q, want %q", got, want)
		}
	}
	// And the link keeps working.
	if err := a.Send(2, []byte("after")); err != nil {
		t.Fatal(err)
	}
	if got := recvWithTimeout(t, b2, 5*time.Second); string(got) != "after" {
		t.Fatalf("got %q", got)
	}
}

// TestTCPEndpointDialErrorNamesPeer checks the dial-timeout bugfix: an
// unreachable peer surfaces a bounded, peer-identifying error instead of
// hanging construction or the round loop.
func TestTCPEndpointDialErrorNamesPeer(t *testing.T) {
	cfgs := peerConfigs("down", freeAddrs(t, 2))
	opts := TCPOptions{
		DialTimeout: 200 * time.Millisecond,
		RetryMin:    10 * time.Millisecond,
		RetryMax:    20 * time.Millisecond,
	}
	a, err := NewTCPEndpoint(cfgs[0], opts)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	// Peer 2 never starts. Send must not block; the link must record a
	// peer-identifying error.
	if err := a.Send(2, []byte("void")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "link error for an unreachable peer", func() bool { return a.LinkError(2) != nil })
	if err := a.LinkError(2); !strings.Contains(err.Error(), "p1->p2") {
		t.Fatalf("link error does not name the link: %v", err)
	}
}

// TestTCPEndpointCloseDeterministic closes an endpoint mid-traffic many
// times; the waitgroup-drained shutdown must never leak a goroutine that
// touches the mailbox after close (the race detector guards this).
func TestTCPEndpointCloseDeterministic(t *testing.T) {
	for i := 0; i < 5; i++ {
		cfgs := peerConfigs("shut", freeAddrs(t, 3))
		eps := make([]*TCPEndpoint, 3)
		for j, cfg := range cfgs {
			ep, err := NewTCPEndpoint(cfg, TCPOptions{RetryMin: 5 * time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
			eps[j] = ep
		}
		stop := make(chan struct{})
		for _, ep := range eps {
			go func(e *TCPEndpoint) {
				for k := 0; ; k++ {
					select {
					case <-stop:
						return
					default:
					}
					for q := model.ProcessID(1); q <= 3; q++ {
						if err := e.Send(q, []byte{byte(k)}); err != nil {
							if !errors.Is(err, ErrClosed) {
								t.Errorf("send: %v", err)
							}
							return
						}
					}
				}
			}(ep)
			go func(e *TCPEndpoint) {
				for range e.Recv() {
				}
			}(ep)
		}
		// Soak until the mesh is fully connected — traffic is then
		// genuinely in flight on every link when Close lands.
		waitFor(t, "full mesh connectivity", func() bool {
			for _, ep := range eps {
				if ep.Connected().Len() < 2 {
					return false
				}
			}
			return true
		})
		for _, ep := range eps {
			if err := ep.Close(); err != nil {
				t.Fatal(err)
			}
			// Idempotent.
			if err := ep.Close(); err != nil {
				t.Fatal(err)
			}
		}
		close(stop)
	}
}
