package runtime_test

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"indulgence/internal/core"
	"indulgence/internal/model"
	"indulgence/internal/runtime"
	"indulgence/internal/transport"
)

func props(n int) []model.Value {
	out := make([]model.Value, n)
	for i := range out {
		out[i] = model.Value(i + 1)
	}
	return out
}

// newMemoryCluster assembles a cluster over a fresh hub.
func newMemoryCluster(t *testing.T, n, tt int, factory model.Factory, timeout time.Duration) (*transport.Hub, *runtime.Cluster) {
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
	cl, err := runtime.New(runtime.Config{
		N: n, T: tt,
		Factory:     factory,
		Proposals:   props(n),
		Endpoints:   eps,
		BaseTimeout: timeout,
	})
	if err != nil {
		t.Fatal(err)
	}
	return hub, cl
}

// assertAgreement checks results for agreement and returns the decision
// count.
func assertAgreement(t *testing.T, results []runtime.NodeResult) int {
	t.Helper()
	var (
		val     model.Value
		have    bool
		decided int
	)
	for _, r := range results {
		v, ok := r.Decision.Get()
		if !ok {
			continue
		}
		decided++
		if !have {
			val, have = v, true
		} else if v != val {
			t.Fatalf("agreement violated: %d vs %d", val, v)
		}
	}
	return decided
}

func TestQuietNetworkFastPath(t *testing.T) {
	_, cl := newMemoryCluster(t, 5, 2, core.New(core.Options{}), 50*time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	results, err := cl.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := assertAgreement(t, results); got != 5 {
		t.Fatalf("%d of 5 decided", got)
	}
	for _, r := range results {
		if r.Round != 4 {
			t.Errorf("p%d decided at round %d, want t+2=4", r.ID, r.Round)
		}
	}
}

func TestAsynchronousPeriod(t *testing.T) {
	hub, cl := newMemoryCluster(t, 5, 2, core.New(core.Options{}), 8*time.Millisecond)
	hub.DelayProcess(1, 60*time.Millisecond)
	time.AfterFunc(250*time.Millisecond, hub.Heal)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	results, err := cl.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := assertAgreement(t, results); got < 5 {
		t.Fatalf("%d of 5 decided", got)
	}
}

func TestCrashInjection(t *testing.T) {
	_, cl := newMemoryCluster(t, 5, 2, core.New(core.Options{}), 8*time.Millisecond)
	if err := cl.Crash(2); err != nil { // crash before start is honoured
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	results, err := cl.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := assertAgreement(t, results); got < 4 {
		t.Fatalf("%d of 4 live processes decided", got)
	}
	if !results[1].Crashed {
		t.Fatal("p2 not marked crashed")
	}
	if _, ok := results[1].Decision.Get(); ok {
		t.Fatal("crashed process decided")
	}
}

func TestWaitQuorumPolicy(t *testing.T) {
	hub, err := transport.NewHub(4)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = hub.Close() })
	eps := make([]transport.Transport, 4)
	for i := range eps {
		if eps[i], err = hub.Endpoint(model.ProcessID(i + 1)); err != nil {
			t.Fatal(err)
		}
	}
	cl, err := runtime.New(runtime.Config{
		N: 4, T: 1,
		Factory:     core.NewAfPlus2(),
		Proposals:   props(4),
		Endpoints:   eps,
		WaitPolicy:  core.WaitQuorum,
		BaseTimeout: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	results, err := cl.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := assertAgreement(t, results); got != 4 {
		t.Fatalf("%d of 4 decided", got)
	}
}

func TestConfigErrors(t *testing.T) {
	hub, err := transport.NewHub(2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = hub.Close() })
	e1, _ := hub.Endpoint(1)
	e2, _ := hub.Endpoint(2)
	good := runtime.Config{
		N: 2, T: 0,
		Factory:   core.NewAfPlus2(),
		Proposals: props(2),
		Endpoints: []transport.Transport{e1, e2},
	}
	bad := good
	bad.N = 1
	if _, err := runtime.New(bad); err == nil {
		t.Fatal("n=1 accepted")
	}
	bad = good
	bad.Proposals = props(3)
	if _, err := runtime.New(bad); err == nil {
		t.Fatal("proposal mismatch accepted")
	}
	bad = good
	bad.Factory = nil
	if _, err := runtime.New(bad); err == nil {
		t.Fatal("nil factory accepted")
	}
	bad = good
	bad.Endpoints = []transport.Transport{e2, e1}
	if _, err := runtime.New(bad); err == nil {
		t.Fatal("misordered endpoints accepted")
	}
}

func TestRunOnce(t *testing.T) {
	_, cl := newMemoryCluster(t, 3, 1, core.New(core.Options{}), 10*time.Millisecond)
	ctx := context.Background()
	if _, err := cl.Run(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Run(ctx); err == nil {
		t.Fatal("second Run accepted")
	}
	if err := cl.Crash(9); err == nil {
		t.Fatal("crash of unknown process accepted")
	}
}

func TestContextCancellation(t *testing.T) {
	// With more crashes than t the survivors cannot assemble a quorum;
	// the run must end via the context, reporting whoever decided.
	_, cl := newMemoryCluster(t, 3, 1, core.New(core.Options{}), 5*time.Millisecond)
	_ = cl.Crash(1)
	_ = cl.Crash(2)
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	results, err := cl.Run(ctx)
	if err == nil {
		t.Fatal("expected a context error")
	}
	for _, r := range results[:2] {
		if _, ok := r.Decision.Get(); ok {
			t.Fatal("crashed process decided")
		}
	}
}

// TestStartDecisionsStop runs two clusters concurrently as separate
// consensus instances over one hub's sockets shared through muxes: both
// reach agreement, and a cluster that ran refuses a second Run.
func TestStartDecisionsStop(t *testing.T) {
	const n, tt = 5, 2
	hub, err := transport.NewHub(n)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = hub.Close() })
	muxes := make([]*transport.Mux, n)
	for i := 0; i < n; i++ {
		ep, err := hub.Endpoint(model.ProcessID(i + 1))
		if err != nil {
			t.Fatal(err)
		}
		muxes[i] = transport.NewMux(ep, nil)
		t.Cleanup(func(m *transport.Mux) func() { return func() { _ = m.Close() } }(muxes[i]))
	}

	clusters := make([]*runtime.Cluster, 2)
	for inst := range clusters {
		eps := make([]transport.Transport, n)
		for i := 0; i < n; i++ {
			ep, err := muxes[i].Open(uint64(inst))
			if err != nil {
				t.Fatal(err)
			}
			eps[i] = ep
		}
		cl, err := runtime.New(runtime.Config{
			N: n, T: tt,
			Factory:     core.New(core.Options{}),
			Proposals:   props(n),
			Endpoints:   eps,
			BaseTimeout: 20 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		clusters[inst] = cl
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	results := make([][]runtime.NodeResult, len(clusters))
	errs := make([]error, len(clusters))
	var wg sync.WaitGroup
	for inst, cl := range clusters {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[inst], errs[inst] = cl.Run(ctx)
		}()
	}
	wg.Wait()
	for inst := range clusters {
		if errs[inst] != nil {
			t.Fatalf("instance %d: %v", inst, errs[inst])
		}
		if got := assertAgreement(t, results[inst]); got != n {
			t.Fatalf("instance %d: %d of %d nodes decided", inst, got, n)
		}
	}
	if _, err := clusters[0].Run(ctx); err == nil {
		t.Fatal("rerunning a finished cluster succeeded")
	}
}

// countingTransport counts the frames its process sends.
type countingTransport struct {
	transport.Transport
	sent atomic.Int64
}

func (c *countingTransport) Send(to model.ProcessID, frame []byte) error {
	c.sent.Add(1)
	return c.Transport.Send(to, frame)
}

// TestLaggardDecidesOnRelay is the relay-once rule in the multi-process
// shape: four single-member clusters on one hub, p4's outbound links
// delayed well past the detector timeout, so p1–p3 decide without it and
// p4 (|Halt| > t) cannot decide at t+2 on its own — it must finish on the
// DECIDE its halted peers relayed. Every member sends exactly its
// decision round's broadcasts plus one relay, and every Run returns.
func TestLaggardDecidesOnRelay(t *testing.T) {
	const n, tt = 4, 1
	// ByName pairs each algorithm with its discipline: diamonds runs
	// under WaitQuorum, the other two under WaitUnsuspected.
	for _, name := range []string{"atplus2", "diamonds", "afplus2"} {
		t.Run(name, func(t *testing.T) {
			factory, wait, err := core.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			hub, err := transport.NewHub(n)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { _ = hub.Close() })
			hub.DelayProcess(n, 60*time.Millisecond)

			ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
			defer cancel()
			counters := make([]*countingTransport, n)
			results := make([]runtime.NodeResult, n)
			errs := make([]error, n)
			var wg sync.WaitGroup
			for i := range counters {
				id := model.ProcessID(i + 1)
				ep, err := hub.Endpoint(id)
				if err != nil {
					t.Fatal(err)
				}
				counters[i] = &countingTransport{Transport: ep}
				eps := make([]transport.Transport, n)
				eps[i] = counters[i]
				var members model.PIDSet
				members.Add(id)
				cl, err := runtime.New(runtime.Config{
					N: n, T: tt,
					Factory:     factory,
					Proposals:   props(n),
					Endpoints:   eps,
					Members:     members,
					WaitPolicy:  wait,
					BaseTimeout: 10 * time.Millisecond,
				})
				if err != nil {
					t.Fatal(err)
				}
				wg.Add(1)
				go func() {
					defer wg.Done()
					res, err := cl.Run(ctx)
					if err == nil {
						results[i] = res[i]
					}
					errs[i] = err
				}()
			}
			wg.Wait()
			for i, err := range errs {
				if err != nil {
					t.Fatalf("p%d: Run: %v", i+1, err)
				}
			}
			if got := assertAgreement(t, results); got != n {
				t.Fatalf("%d of %d members decided", got, n)
			}
			for i, r := range results {
				want := int64(r.Round+1) * n
				if got := counters[i].sent.Load(); got != want {
					t.Errorf("p%d decided at round %d and sent %d frames, want (%d+1)·%d = %d",
						i+1, r.Round, got, r.Round, n, want)
				}
			}
		})
	}
}

// TestMembersSplitCluster runs one consensus instance as three separate
// Cluster objects — one member each, sharing nothing but the transport —
// the exact shape of a multi-process deployment (each OS process runs
// its own member over a peer-configured TCP endpoint).
func TestMembersSplitCluster(t *testing.T) {
	const n, tt = 3, 1
	tc, err := transport.NewTCPCluster(n)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = tc.Close() })

	type outcome struct {
		id      model.ProcessID
		results []runtime.NodeResult
		err     error
	}
	outcomes := make(chan outcome, n)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for i := 0; i < n; i++ {
		id := model.ProcessID(i + 1)
		ep, err := tc.Endpoint(id)
		if err != nil {
			t.Fatal(err)
		}
		eps := make([]transport.Transport, n)
		eps[i] = ep
		var members model.PIDSet
		members.Add(id)
		cl, err := runtime.New(runtime.Config{
			N: n, T: tt,
			Factory:     core.New(core.Options{}),
			Proposals:   props(n),
			Endpoints:   eps,
			Members:     members,
			BaseTimeout: 20 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		go func() {
			res, err := cl.Run(ctx)
			outcomes <- outcome{id: id, results: res, err: err}
		}()
	}

	var (
		val  model.Value
		have bool
	)
	for i := 0; i < n; i++ {
		o := <-outcomes
		if o.err != nil {
			t.Fatalf("member p%d: %v", o.id, o.err)
		}
		r := o.results[o.id-1]
		v, ok := r.Decision.Get()
		if !ok {
			t.Fatalf("member p%d did not decide", o.id)
		}
		if !have {
			val, have = v, true
		} else if v != val {
			t.Fatalf("member p%d decided %d, others decided %d", o.id, v, val)
		}
		// Non-member entries are placeholders.
		for j, other := range o.results {
			if _, ok := other.Decision.Get(); ok && model.ProcessID(j+1) != o.id {
				t.Fatalf("member p%d reported a decision for remote p%d", o.id, j+1)
			}
		}
	}
}

// TestMembersValidation covers the member-subset error cases.
func TestMembersValidation(t *testing.T) {
	hub, err := transport.NewHub(3)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = hub.Close() })
	ep2, err := hub.Endpoint(2)
	if err != nil {
		t.Fatal(err)
	}
	base := runtime.Config{
		N: 3, T: 1,
		Factory:   core.New(core.Options{}),
		Proposals: props(3),
	}

	// A member with a nil endpoint is rejected.
	cfg := base
	cfg.Endpoints = make([]transport.Transport, 3)
	cfg.Members.Add(1)
	if _, err := runtime.New(cfg); err == nil {
		t.Fatal("nil member endpoint accepted")
	}
	// Members outside 1..N are rejected.
	cfg = base
	cfg.Endpoints = []transport.Transport{nil, ep2, nil}
	cfg.Members.Add(2)
	cfg.Members.Add(5)
	if _, err := runtime.New(cfg); err == nil {
		t.Fatal("member outside the system accepted")
	}
	// Crashing a non-member fails; crashing a member works.
	cfg = base
	cfg.Endpoints = []transport.Transport{nil, ep2, nil}
	cfg.Members = 0
	cfg.Members.Add(2)
	cl, err := runtime.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Crash(1); err == nil {
		t.Fatal("crashed a process of another OS process")
	}
	if err := cl.Crash(2); err != nil {
		t.Fatalf("crash own member: %v", err)
	}
}
