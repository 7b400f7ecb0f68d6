package service

import (
	"context"
	"fmt"
	"net"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"indulgence/internal/adapt"
	"indulgence/internal/check"
	"indulgence/internal/core"
	"indulgence/internal/journal"
	"indulgence/internal/metrics"
	"indulgence/internal/model"
	"indulgence/internal/runtime"
	"indulgence/internal/transport"
	"indulgence/internal/wire"
)

// reserveAddrs reserves n distinct loopback addresses by binding and
// releasing ephemeral ports.
func reserveAddrs(t *testing.T, n int) []string {
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

// peerEndpoint builds member id's TCP endpoint over the shared address
// list.
func peerEndpoint(t *testing.T, id model.ProcessID, addrs []string) *transport.TCPEndpoint {
	t.Helper()
	peers := make([]transport.Peer, len(addrs))
	for i, a := range addrs {
		peers[i] = transport.Peer{ID: model.ProcessID(i + 1), Addr: a}
	}
	ep, err := transport.NewTCPEndpoint(
		transport.PeerConfig{Self: id, Cluster: "peer-test", Peers: peers},
		transport.TCPOptions{RetryMin: 5 * time.Millisecond, RetryMax: 100 * time.Millisecond},
	)
	if err != nil {
		t.Fatal(err)
	}
	return ep
}

// peerOpts is the fast-test member configuration of an n-process cluster.
func peerOpts(n int, jn *journal.Journal) Config {
	return Config{
		N: n, T: 1,
		Factory:     core.New(core.Options{}),
		BaseTimeout: 15 * time.Millisecond,
		MaxBatch:    2,
		Linger:      2 * time.Millisecond,
		MaxInflight: 4,
		JoinTimeout: 5 * time.Second,
		Journal:     jn,
	}
}

// proposeAll drives count proposals into member svc and records each
// resolved instance/value pair into live (guarded by mu), failing the
// test on any error.
func proposeAll(t *testing.T, svc *Service, base, count int, live map[uint64]model.Value, mu *sync.Mutex, wg *sync.WaitGroup) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	for i := 0; i < count; i++ {
		fut, err := svc.Propose(ctx, model.Value(base+i))
		if err != nil {
			cancel()
			t.Fatalf("propose %d: %v", base+i, err)
		}
		wg.Add(1)
		go func(v int) {
			defer wg.Done()
			dec, err := fut.Wait(ctx)
			if err != nil {
				t.Errorf("proposal %d: %v", v, err)
				return
			}
			mu.Lock()
			defer mu.Unlock()
			if prev, ok := live[dec.Instance]; ok && prev != dec.Value {
				t.Errorf("instance %d resolved as %d and %d", dec.Instance, prev, dec.Value)
			}
			live[dec.Instance] = dec.Value
		}(base + i)
	}
	// cancel when every future of this batch resolved
	go func() {
		wg.Wait()
		cancel()
	}()
}

// auditJournals replays every member journal directory and cross-checks
// the union against the live observations with check.Replay.
func auditJournals(t *testing.T, live map[uint64]model.Value, dirs ...string) {
	t.Helper()
	var records []wire.DecisionRecord
	var starts []wire.StartRecord
	for _, dir := range dirs {
		h, err := journal.ReadHistory(dir)
		if err != nil {
			t.Fatal(err)
		}
		records = append(records, h.Records...)
		starts = append(starts, h.Starts...)
	}
	rep := check.Replay(records, starts, live)
	if len(rep.Violations) > 0 {
		t.Fatalf("cross-member audit: %v", rep.Violations)
	}
}

// TestPeerServiceAgreement runs three members over real TCP endpoints in
// one OS process, proposes at every member concurrently, and audits the
// union of their journals plus every live observation.
func TestPeerServiceAgreement(t *testing.T) {
	const n = 3
	addrs := reserveAddrs(t, n)
	dir := t.TempDir()

	members := make([]*Service, n)
	dirs := make([]string, n)
	live := make(map[uint64]model.Value)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		id := model.ProcessID(i + 1)
		ep := peerEndpoint(t, id, addrs)
		t.Cleanup(func() { _ = ep.Close() })
		dirs[i] = filepath.Join(dir, fmt.Sprintf("p%d", id))
		jn, err := journal.Open(dirs[i], journal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = jn.Close() })
		svc, err := New(peerOpts(n, jn), []transport.Transport{ep})
		if err != nil {
			t.Fatal(err)
		}
		members[i] = svc
	}

	for i, svc := range members {
		proposeAll(t, svc, 100*(i+1), 6, live, &mu, &wg)
	}
	wg.Wait()
	// A member serves what it journaled, SLO class included.
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	fut, err := members[0].ProposeClass(ctx, 2, 777)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := fut.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := members[0].Lookup(dec.Instance); !ok || got != dec || got.Class != 2 {
		t.Fatalf("Lookup(%d) = %+v, %v; want the class-2 decision %+v", dec.Instance, got, ok, dec)
	}
	mu.Lock()
	live[dec.Instance] = dec.Value
	mu.Unlock()
	for i, svc := range members {
		if err := svc.Close(); err != nil {
			t.Fatalf("close member %d: %v", i+1, err)
		}
		st := svc.Snapshot()
		want := 6
		if i == 0 {
			want++ // the classed proposal
		}
		if st.Resolved != want {
			t.Fatalf("member %d resolved %d of %d (failed %d)", i+1, st.Resolved, want, st.Failed)
		}
	}
	// Journals are auditable only once their members closed them.
	// (Close of the journal happens in cleanup order; flush by closing
	// explicitly first.)
	mu.Lock()
	defer mu.Unlock()
	auditJournals(t, live, dirs...)
}

// TestPeerServiceRestartRejoin is the crash/rejoin contract end to end
// in one OS process: three members decide, one member crash-stops
// (Abort), restarts over the same address with its journal, and serves
// more proposals; the union of all journals across both lifetimes plus
// every live observation audits clean.
func TestPeerServiceRestartRejoin(t *testing.T) {
	const n = 3
	addrs := reserveAddrs(t, n)
	dir := t.TempDir()
	live := make(map[uint64]model.Value)
	var mu sync.Mutex

	dirs := make([]string, n)
	eps := make([]*transport.TCPEndpoint, n)
	jns := make([]*journal.Journal, n)
	members := make([]*Service, n)
	for i := 0; i < n; i++ {
		id := model.ProcessID(i + 1)
		eps[i] = peerEndpoint(t, id, addrs)
		dirs[i] = filepath.Join(dir, fmt.Sprintf("p%d", id))
		jn, err := journal.Open(dirs[i], journal.Options{})
		if err != nil {
			t.Fatal(err)
		}
		jns[i] = jn
		svc, err := New(peerOpts(n, jn), []transport.Transport{eps[i]})
		if err != nil {
			t.Fatal(err)
		}
		members[i] = svc
	}
	defer func() {
		for i := range members {
			members[i].Abort()
			_ = jns[i].Close()
			_ = eps[i].Close()
		}
	}()

	// First lifetime: everyone proposes and resolves.
	var wg1 sync.WaitGroup
	for i, svc := range members {
		proposeAll(t, svc, 100*(i+1), 4, live, &mu, &wg1)
	}
	wg1.Wait()

	// Crash member 3: service aborts, endpoint and journal close — the
	// whole process is gone.
	members[2].Abort()
	_ = jns[2].Close()
	_ = eps[2].Close()

	// Members 1 and 2 keep deciding through the outage (t=1 tolerates
	// the missing member).
	var wgOut sync.WaitGroup
	proposeAll(t, members[0], 500, 4, live, &mu, &wgOut)
	wgOut.Wait()

	// Member 3 restarts: same address, same journal directory, fresh
	// process state. Its transport links re-land via the peers' bounded
	// backoff, its frontier resumes past both lifetimes' claims.
	eps[2] = peerEndpoint(t, 3, addrs)
	jn3, err := journal.Open(dirs[2], journal.Options{})
	if err != nil {
		t.Fatalf("reopen journal after crash: %v", err)
	}
	jns[2] = jn3
	svc3, err := New(peerOpts(n, jn3), []transport.Transport{eps[2]})
	if err != nil {
		t.Fatal(err)
	}
	members[2] = svc3

	// Second lifetime: the restarted member proposes and resolves, and
	// the survivors' proposals keep resolving too.
	var wg2 sync.WaitGroup
	for i, svc := range members {
		proposeAll(t, svc, 1000+100*(i+1), 4, live, &mu, &wg2)
	}
	wg2.Wait()

	for i, svc := range members {
		if err := svc.Close(); err != nil {
			t.Fatalf("close member %d: %v", i+1, err)
		}
	}
	st := members[2].Snapshot()
	if st.Resolved != 4 {
		t.Fatalf("restarted member resolved %d of 4 (failed %d)", st.Resolved, st.Failed)
	}
	for i := range jns {
		_ = jns[i].Close()
	}
	mu.Lock()
	defer mu.Unlock()
	auditJournals(t, live, dirs...)
	// Abort+Close in the deferred cleanup are now no-ops.
}

// TestPeerServiceHubMembers runs members over plain hub endpoints — the
// member layer is transport-agnostic, so an in-memory "multi-process"
// cluster must behave identically (and much faster, which keeps this in
// the default -race sweep). The rows partition one cluster's processes
// over services every way the endpoint rule allows: one service hosting
// all of them, one process per service, and — partial membership — two
// apiece. Every service proposes; proposeAll fails the test if two
// futures of one instance ever carry different values. The laggard row
// delays p3's outbound links past the detector timeout, so p1 and p2
// decide without it and p3 — whose decided peers have halted — must
// finish every instance on their one relayed DECIDE.
func TestPeerServiceHubMembers(t *testing.T) {
	for _, tc := range []struct {
		name      string
		n         int
		hosts     []int // processes hosted per service, in process order
		journaled bool
		laggard   model.ProcessID // 0: no delayed process
	}{
		{"3 as 1+1+1", 3, []int{1, 1, 1}, false, 0},
		{"3 as 1+1+1, p3 laggard", 3, []int{1, 1, 1}, true, 3},
		{"4 as 4", 4, []int{4}, true, 0},
		{"4 as 2+2", 4, []int{2, 2}, true, 0},
		{"4 as 1+1+1+1", 4, []int{1, 1, 1, 1}, true, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			hub, err := transport.NewHub(tc.n)
			if err != nil {
				t.Fatal(err)
			}
			defer hub.Close()
			if tc.laggard != 0 {
				hub.DelayProcess(tc.laggard, 30*time.Millisecond)
			}
			dir := t.TempDir()
			live := make(map[uint64]model.Value)
			var mu sync.Mutex
			var wg sync.WaitGroup
			var members []*Service
			var dirs []string
			var jns []*journal.Journal
			next := model.ProcessID(1)
			for i, hosted := range tc.hosts {
				eps := make([]transport.Transport, hosted)
				for k := range eps {
					if eps[k], err = hub.Endpoint(next); err != nil {
						t.Fatal(err)
					}
					next++
				}
				var jn *journal.Journal
				if tc.journaled {
					dirs = append(dirs, filepath.Join(dir, fmt.Sprintf("s%d", i)))
					if jn, err = journal.Open(dirs[i], journal.Options{}); err != nil {
						t.Fatal(err)
					}
					jns = append(jns, jn)
				}
				svc, err := New(peerOpts(tc.n, jn), eps)
				if err != nil {
					t.Fatal(err)
				}
				members = append(members, svc)
			}
			for i, svc := range members {
				proposeAll(t, svc, 10*(i+1), 8, live, &mu, &wg)
			}
			wg.Wait()
			total := 0
			for i, svc := range members {
				if err := svc.Close(); err != nil {
					t.Fatalf("close member %d: %v", i+1, err)
				}
				st := svc.Snapshot()
				total += st.Resolved
				if st.Failed > 0 {
					t.Fatalf("member %d failed %d proposals", i+1, st.Failed)
				}
				if len(st.Violations) > 0 {
					t.Fatalf("member %d violations: %v", i+1, st.Violations)
				}
			}
			if total != len(members)*8 {
				t.Fatalf("resolved %d of %d proposals", total, len(members)*8)
			}
			for _, jn := range jns {
				if err := jn.Close(); err != nil {
					t.Fatal(err)
				}
			}
			mu.Lock()
			defer mu.Unlock()
			auditJournals(t, live, dirs...)
		})
	}
}

// TestPeerServiceJoinsEarlyFrames pins the join of a slot whose frames
// reach a member before its service exists: p1 starts slot 0 while p2 is
// not yet built, so p2's mux buffers the slot's frames before the
// service is up and before its join signal is installed. p2 must still
// join the slot — installing the signal replays it — or p1, short of
// n−t processes, never decides.
func TestPeerServiceJoinsEarlyFrames(t *testing.T) {
	const n = 3
	hub, err := transport.NewHub(n)
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	member := func(id model.ProcessID, reg *metrics.Registry) *Service {
		t.Helper()
		ep, err := hub.Endpoint(id)
		if err != nil {
			t.Fatal(err)
		}
		cfg := peerOpts(n, nil)
		cfg.Linger, cfg.InstanceTimeout, cfg.Metrics = time.Millisecond, 10*time.Second, reg
		svc, err := New(cfg, []transport.Transport{ep})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = svc.Close() })
		return svc
	}
	reg := metrics.NewRegistry()
	p1 := member(1, reg)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	fut, err := p1.Propose(ctx, 7)
	if err != nil {
		t.Fatal(err)
	}
	// p1's first broadcast is out (its frame to p2 is sent before the
	// counter reaches n) and p1 waits for a second process.
	sent := func() (frames int) {
		for _, line := range strings.Split(reg.Text(), "\n") {
			if v, ok := strings.CutPrefix(line, "indulgence_frames_out_total "); ok {
				frames, _ = strconv.Atoi(v)
			}
		}
		return frames
	}
	for sent() < n {
		if ctx.Err() != nil {
			t.Fatal("p1 never broadcast its first round")
		}
		time.Sleep(time.Millisecond)
	}
	p2 := member(2, nil)
	dec, err := fut.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Instance != 0 || dec.Value != 7 {
		t.Fatalf("decided %+v, want value 7 on slot 0", dec)
	}
	for p2.Snapshot().JoinedInstances < 1 {
		if ctx.Err() != nil {
			t.Fatal("p2 never joined slot 0")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestNewPeerValidation covers the constructor error cases.
func TestNewPeerValidation(t *testing.T) {
	hub, err := transport.NewHub(2)
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	ep, err := hub.Endpoint(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(peerOpts(1, nil), []transport.Transport{ep}); err == nil {
		t.Fatal("n=1 accepted")
	}
	if _, err := New(peerOpts(2, nil), []transport.Transport{nil}); err == nil {
		t.Fatal("nil endpoint accepted")
	}
	opts := peerOpts(2, nil)
	opts.Factory = nil
	if _, err := New(opts, []transport.Transport{ep}); err == nil {
		t.Fatal("nil factory accepted")
	}
	// Self outside 1..n.
	hub3, err := transport.NewHub(3)
	if err != nil {
		t.Fatal(err)
	}
	defer hub3.Close()
	ep3, err := hub3.Endpoint(3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(peerOpts(2, nil), []transport.Transport{ep3}); err == nil {
		t.Fatal("endpoint outside the cluster accepted")
	}
	if _, err := New(peerOpts(3, nil), []transport.Transport{ep3, ep3}); err == nil {
		t.Fatal("duplicate Self() among the endpoints accepted")
	}
	// A member cannot pick a shared slot's algorithm on its own.
	opts = peerOpts(3, nil)
	opts.Adaptive = &adapt.Config{SelectAlgorithms: true}
	if _, err := New(opts, []transport.Transport{ep3}); err == nil {
		t.Fatal("SelectAlgorithms with a remote process accepted")
	}
}

// TestJoinDedupesOnTheMux pins that a member's mux is the one record of
// which slots it is in. Three members share a hub; p1 initiates X and
// then Y. While Y is held in p1's OnInstance hook, p1 receives join(X)
// for the decided X and join(Y) for the running Y: both must be dropped
// without counting anywhere. Then a proposal lingers in p2's batcher
// while p2 receives join(X) and a join of a slot past its counter whose
// stream its mux has already retired: neither may take the lingering
// batch, which must decide on a fresh slot of its own.
func TestJoinDedupesOnTheMux(t *testing.T) {
	const n = 3
	hub, err := transport.NewHub(n)
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	const x, y = 0, 1
	held, release := make(chan struct{}), make(chan struct{})
	members := make([]*Service, n)
	for i := range members {
		ep, err := hub.Endpoint(model.ProcessID(i + 1))
		if err != nil {
			t.Fatal(err)
		}
		cfg := peerOpts(n, nil)
		cfg.Linger = 200 * time.Millisecond
		if i == 0 {
			cfg.OnInstance = func(instance uint64, _ *runtime.Cluster) {
				if instance == y {
					close(held)
					<-release
				}
			}
		}
		if members[i], err = New(cfg, []transport.Transport{ep}); err != nil {
			t.Fatal(err)
		}
		defer members[i].Close()
	}
	p1, p2 := members[0], members[1]
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	decide := func(svc *Service, v model.Value) *Future {
		t.Helper()
		fut, err := svc.Propose(ctx, v)
		if err != nil {
			t.Fatal(err)
		}
		return fut
	}
	wait := func(fut *Future) Decision {
		t.Helper()
		dec, err := fut.Wait(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return dec
	}
	// settle waits until every member has decided want instances and its
	// join signals are consumed.
	settle := func(want int) {
		t.Helper()
		for _, svc := range members {
			for svc.Snapshot().Instances < want || len(svc.joins) > 0 {
				if ctx.Err() != nil {
					t.Fatalf("members never settled at %d instances", want)
				}
				time.Sleep(time.Millisecond)
			}
		}
	}

	if dec := wait(decide(p1, 10)); dec.Instance != x {
		t.Fatalf("first proposal decided on %d, want %d", dec.Instance, x)
	}
	settle(1)
	futY := decide(p1, 20)
	<-held
	p1.join(x)
	p1.join(y)
	for len(p1.joins) > 0 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	if dec := wait(futY); dec.Instance != y {
		t.Fatalf("second proposal decided on %d, want %d", dec.Instance, y)
	}
	settle(2)

	const retired = 1000
	p2.muxes[0].Retire(retired)
	fut := decide(p2, 30)
	for len(p2.intake) > 0 {
		time.Sleep(time.Millisecond) // until the proposal lingers in the batch
	}
	p2.join(x)
	p2.join(retired)
	dec := wait(fut)
	if dec.Instance == x || dec.Instance == retired || dec.Value != 30 {
		t.Fatalf("lingering proposal decided %+v, want value 30 on a fresh slot", dec)
	}
	settle(3)

	for i, svc := range members {
		if err := svc.Close(); err != nil {
			t.Fatal(err)
		}
		st := svc.Snapshot()
		// p1 initiated X and Y and joined p2's slot; p2 joined X and Y
		// and initiated its own; p3 joined all three.
		wantJoined := []int{1, 2, 3}[i]
		if st.Instances != 3 || st.InstanceFailures != 0 || st.JoinedInstances != wantJoined {
			t.Fatalf("p%d: %d instances, %d failures, %d joined; want 3, 0, %d",
				i+1, st.Instances, st.InstanceFailures, st.JoinedInstances, wantJoined)
		}
	}
}
