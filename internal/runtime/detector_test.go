package runtime_test

import (
	"context"
	goruntime "runtime"
	"sync"
	"testing"
	"time"

	"indulgence/internal/chaos/clock"
	"indulgence/internal/core"
	"indulgence/internal/fd"
	"indulgence/internal/model"
	"indulgence/internal/runtime"
	"indulgence/internal/transport"
)

// TestSharedDetectors runs clusters concurrently on one virtual clock
// over the same three detectors, the way a service runs its instances.
//
// Phase 1: A and B both lose p3; B starts b/3 after A. A's nodes suspect
// p3 at b, and that suspicion ends B's wait at B's next poll — 3b/4 into
// B's round, before B's own timeout could expire — with no transition of
// B's own.
//
// Phase 2: C runs with p3 alive and p2 crashed, so C's p1 must hear p3
// to reach its quorum; that lifts p1's suspicion of p3 and doubles its
// timeout. D, started b/2 into C with p3 crashed, therefore waits out
// p3's doubled timeout anew.
func TestSharedDetectors(t *testing.T) {
	// The virtual clock settles exactly only at GOMAXPROCS=1 (see
	// clock.Virtual), and this test times goroutine starts against it.
	defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(1))
	const n, b = 3, 8 * time.Millisecond
	v := clock.NewVirtual()
	dets := make([]*fd.TimeoutDetector, n)
	for i := range dets {
		dets[i] = fd.NewTimeoutDetectorClock(b, v)
	}
	// The hub counts a frame in flight until its receiver takes it, and
	// the clock only steps once nothing is in flight: a crashed process's
	// frames are drained here, and the hub closes when its cluster's Run
	// returns, dropping what its halted nodes never read.
	type instance struct {
		cl  *runtime.Cluster
		hub *transport.Hub
	}
	cluster := func(crashed ...model.ProcessID) instance {
		hub, err := transport.NewHubClock(n, v)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = hub.Close() })
		eps := make([]transport.Transport, n)
		for i := range eps {
			if eps[i], err = hub.Endpoint(model.ProcessID(i + 1)); err != nil {
				t.Fatal(err)
			}
		}
		cl, err := runtime.New(runtime.Config{
			N: n, T: 1,
			Factory:     core.New(core.Options{}),
			Proposals:   props(n),
			Endpoints:   eps,
			BaseTimeout: b,
			Clock:       v,
			Detectors:   dets,
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range crashed {
			_ = cl.Crash(p)
			go func(ep transport.Transport) {
				for range ep.Recv() {
				}
			}(eps[p-1])
		}
		return instance{cl, hub}
	}
	// run starts first now and second after delay, drives the clock
	// until both clusters halted, and returns their results.
	run := func(first, second instance, delay time.Duration) (ra, rb []runtime.NodeResult) {
		var wg sync.WaitGroup
		wg.Add(2)
		launch := func(in instance, out *[]runtime.NodeResult) {
			go func() {
				defer wg.Done()
				res, err := in.cl.Run(context.Background())
				if err != nil {
					t.Error(err)
				}
				_ = in.hub.Close()
				*out = res
			}()
		}
		launch(first, &ra)
		v.AfterFunc(delay, func() { launch(second, &rb) })
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		start := v.Now()
		if !v.Run(done, func() bool { return v.Since(start) > time.Second }) {
			t.Fatal("clusters wedged")
		}
		return ra, rb
	}

	resA, resB := run(cluster(3), cluster(3), b/3)
	for _, p := range []int{0, 1} {
		if _, ok := resA[p].Decision.Get(); !ok {
			t.Fatalf("A: p%d did not decide", p+1)
		}
		if _, ok := resB[p].Decision.Get(); !ok {
			t.Fatalf("B: p%d did not decide", p+1)
		}
		// A's node raised p3's suspicion, and it still stands.
		if got := resA[p].Suspicions; got != 2 {
			t.Errorf("A: p%d Suspicions = %d, want 1 transition + 1 standing", p+1, got)
		}
		// B's node raised nothing: A's suspicion ended its wait.
		if got := resB[p].Suspicions; got != 1 {
			t.Errorf("B: p%d Suspicions = %d, want 0 transitions + 1 standing", p+1, got)
		}
		if got := resB[p].Elapsed; got >= b {
			t.Errorf("B: p%d took %v, not ended by A's suspicion before its own %v timeout", p+1, got, b)
		}
	}

	_, resD := run(cluster(2), cluster(3), b/2)
	if got := dets[0].TimeoutFor(3); got != 2*b {
		t.Fatalf("p1's timeout for p3 = %v, want %v after C heard p3", got, 2*b)
	}
	if got := resD[0].Elapsed; got < 2*b {
		t.Errorf("D: p1 took %v; C's hearing p3 should have lifted the suspicion D waits out (%v)", got, 2*b)
	}
	// D raised the suspicion at its halting instant; reads show it from
	// the next one.
	v.AfterFunc(time.Nanosecond, func() {})
	v.Step()
	if !dets[0].Suspected().Has(3) {
		t.Error("D: p1 did not re-suspect the crashed p3")
	}
}
