package service_test

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"indulgence/internal/core"
	"indulgence/internal/model"
	"indulgence/internal/service"
	"indulgence/internal/transport"
)

// hubEndpoints builds one hub and returns its endpoints.
func hubEndpoints(t *testing.T, n int) (*transport.Hub, []transport.Transport) {
	t.Helper()
	hub, err := transport.NewHub(n)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = hub.Close() })
	eps := make([]transport.Transport, n)
	for i := 0; i < n; i++ {
		ep, err := hub.Endpoint(model.ProcessID(i + 1))
		if err != nil {
			t.Fatal(err)
		}
		eps[i] = ep
	}
	return hub, eps
}

// tcpEndpoints builds one loopback TCP cluster and returns its endpoints.
func tcpEndpoints(t *testing.T, n int) []transport.Transport {
	t.Helper()
	tc, err := transport.NewTCPCluster(n)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = tc.Close() })
	eps := make([]transport.Transport, n)
	for i := 0; i < n; i++ {
		ep, err := tc.Endpoint(model.ProcessID(i + 1))
		if err != nil {
			t.Fatal(err)
		}
		eps[i] = ep
	}
	return eps
}

// driveProposals submits total proposals from clients concurrent workers
// and waits for every future, failing the test on any error.
func driveProposals(t *testing.T, svc *service.Service, clients, total int) []service.Decision {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	var (
		mu   sync.Mutex
		decs []service.Decision
		wg   sync.WaitGroup
		next = make(chan model.Value, total)
	)
	for i := 0; i < total; i++ {
		next <- model.Value(i + 1)
	}
	close(next)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for v := range next {
				fut, err := svc.Propose(ctx, v)
				if err != nil {
					t.Errorf("propose %d: %v", v, err)
					return
				}
				dec, err := fut.Wait(ctx)
				if err != nil {
					t.Errorf("wait %d: %v", v, err)
					return
				}
				mu.Lock()
				decs = append(decs, dec)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return decs
}

// TestServiceManyInstancesUnderDelays is the headline service-level test:
// well over 64 consensus instances run concurrently over one in-memory
// cluster while the hub injects an asynchronous period (p1's outbound
// links delayed, then healed), and every instance must satisfy agreement
// and validity — zero check violations.
func TestServiceManyInstancesUnderDelays(t *testing.T) {
	const (
		n, tt   = 4, 1
		clients = 32
		total   = 256
	)
	hub, eps := hubEndpoints(t, n)
	svc, err := service.New(service.Config{
		N: n, T: tt,
		Factory:     core.New(core.Options{}),
		BaseTimeout: 5 * time.Millisecond,
		MaxBatch:    4,
		Linger:      time.Millisecond,
		MaxInflight: 64,
	}, eps)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = svc.Close() }()

	// Asynchronous period: p1 slow for the first part of the load, then
	// the network heals — the live shape of the paper's ES model.
	hub.DelayProcess(1, 15*time.Millisecond)
	time.AfterFunc(150*time.Millisecond, hub.Heal)

	decs := driveProposals(t, svc, clients, total)
	if t.Failed() {
		return
	}
	if len(decs) != total {
		t.Fatalf("resolved %d of %d proposals", len(decs), total)
	}
	// Futures of one batch resolve to one decision; decisions are valid
	// proposals.
	byInstance := make(map[uint64]service.Decision)
	for _, d := range decs {
		if d.Value < 1 || d.Value > total {
			t.Fatalf("instance %d decided unproposed value %d", d.Instance, d.Value)
		}
		if prev, ok := byInstance[d.Instance]; ok && prev.Value != d.Value {
			t.Fatalf("instance %d resolved two values: %d and %d", d.Instance, prev.Value, d.Value)
		}
		byInstance[d.Instance] = d
	}
	if got := len(byInstance); got < 64 {
		t.Fatalf("only %d instances for %d proposals (batch ≤ 4): want ≥ 64", got, total)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	st := svc.Snapshot()
	if len(st.Violations) != 0 {
		t.Fatalf("consensus violations: %v", st.Violations)
	}
	if st.Resolved != total || st.Failed != 0 || st.InstanceFailures != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Rounds.Min < tt+2 {
		t.Fatalf("an instance decided in %d rounds, below the t+2 floor", st.Rounds.Min)
	}
	if st.Latency.Count != total || st.Latency.P99 <= 0 {
		t.Fatalf("latency summary = %+v", st.Latency)
	}
}

// TestServiceOverTCP runs concurrent instances over real loopback
// connections: the muxes share one TCP connection per ordered process
// pair across all instances.
func TestServiceOverTCP(t *testing.T) {
	const (
		n, tt   = 4, 1
		clients = 8
		total   = 64
	)
	eps := tcpEndpoints(t, n)
	svc, err := service.New(service.Config{
		N: n, T: tt,
		Factory:     core.New(core.Options{}),
		BaseTimeout: 10 * time.Millisecond,
		MaxBatch:    4,
		Linger:      time.Millisecond,
		MaxInflight: 16,
	}, eps)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = svc.Close() }()

	decs := driveProposals(t, svc, clients, total)
	if t.Failed() {
		return
	}
	if len(decs) != total {
		t.Fatalf("resolved %d of %d proposals", len(decs), total)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	st := svc.Snapshot()
	if len(st.Violations) != 0 {
		t.Fatalf("consensus violations: %v", st.Violations)
	}
	if st.Instances < total/4 {
		t.Fatalf("only %d instances decided", st.Instances)
	}
}

// TestServiceBatching checks the batch cut points: proposals arriving
// together share an instance (and a decision), and a lone proposal is cut
// by the linger timer.
func TestServiceBatching(t *testing.T) {
	const n, tt = 4, 1
	_, eps := hubEndpoints(t, n)
	svc, err := service.New(service.Config{
		N: n, T: tt,
		Factory:     core.New(core.Options{}),
		BaseTimeout: 10 * time.Millisecond,
		MaxBatch:    3,
		Linger:      200 * time.Millisecond,
		MaxInflight: 4,
	}, eps)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = svc.Close() }()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	// Three proposals inside one linger window fill MaxBatch exactly.
	futs := make([]*service.Future, 3)
	for i := range futs {
		fut, err := svc.Propose(ctx, model.Value(i+1))
		if err != nil {
			t.Fatal(err)
		}
		futs[i] = fut
	}
	var first service.Decision
	for i, fut := range futs {
		dec, err := fut.Wait(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = dec
		} else if dec != first {
			t.Fatalf("batch split: %+v vs %+v", dec, first)
		}
	}
	if first.Batch != 3 {
		t.Fatalf("batch size = %d, want 3", first.Batch)
	}

	// A lone proposal must not wait for a full batch: the linger timer
	// cuts it.
	start := time.Now()
	fut, err := svc.Propose(ctx, 99)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := fut.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Batch != 1 || dec.Value != 99 {
		t.Fatalf("lone decision = %+v", dec)
	}
	if waited := time.Since(start); waited > 30*time.Second {
		t.Fatalf("lone proposal took %v", waited)
	}
}

// TestServiceClose checks graceful shutdown: pending proposals flush,
// Propose after Close fails with ErrClosed, Close is idempotent.
func TestServiceClose(t *testing.T) {
	const n, tt = 4, 1
	_, eps := hubEndpoints(t, n)
	svc, err := service.New(service.Config{
		N: n, T: tt,
		Factory:     core.New(core.Options{}),
		BaseTimeout: 10 * time.Millisecond,
		MaxBatch:    8,
		Linger:      time.Hour, // only Close may cut this batch
		MaxInflight: 2,
	}, eps)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	fut, err := svc.Propose(ctx, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	dec, err := fut.Wait(ctx)
	if err != nil {
		t.Fatalf("pending proposal not flushed at Close: %v", err)
	}
	if dec.Value != 7 || dec.Batch != 1 {
		t.Fatalf("decision = %+v", dec)
	}
	if _, err := svc.Propose(ctx, 8); !errors.Is(err, service.ErrClosed) {
		t.Fatalf("Propose after Close: %v", err)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestServiceConfigErrors covers constructor validation.
func TestServiceConfigErrors(t *testing.T) {
	_, eps := hubEndpoints(t, 4)
	if _, err := service.New(service.Config{N: 1, Factory: core.New(core.Options{})}, eps[:1]); err == nil {
		t.Fatal("n=1 accepted")
	}
	if _, err := service.New(service.Config{N: 4, T: 1}, eps); err == nil {
		t.Fatal("nil factory accepted")
	}
	// A short slice is a member hosting a subset now; only an empty one
	// hosts nothing.
	if _, err := service.New(service.Config{N: 4, T: 1, Factory: core.New(core.Options{})}, eps[:0]); err == nil {
		t.Fatal("empty endpoint slice accepted")
	}
	if _, err := service.New(service.Config{N: 2, T: 0, Factory: core.New(core.Options{})},
		[]transport.Transport{eps[1], eps[0]}); err == nil {
		t.Fatal("misordered endpoints accepted")
	}
}
