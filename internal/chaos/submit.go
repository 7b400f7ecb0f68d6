package chaos

import (
	"context"
	"errors"
	"sync"
	"time"

	"indulgence/internal/adapt"
	"indulgence/internal/chaos/clock"
	"indulgence/internal/model"
	"indulgence/internal/service"
	"indulgence/internal/transport"
	"indulgence/internal/wire"
	"indulgence/internal/workload"
)

// Fabric is the virtual-time substrate one run stands on: a fresh
// virtual clock, a memory hub on it, and the hub's endpoints behind the
// scenario's fault network — so every cross-process frame, faulted or
// not, is a seed-tagged clock event, which is what makes a schedule
// replayable. The caller starts its service on Endpoints, drives it
// with Submit and closes Hub.
type Fabric struct {
	Clock     *clock.Virtual
	Hub       *transport.Hub
	Endpoints []transport.Transport
}

// NewFabric builds the substrate for sc: sc.N endpoints, sc's seed and
// fault schedule (none for a quiet fabric).
func NewFabric(sc Scenario) (*Fabric, error) {
	clk := clock.NewVirtual()
	hub, err := transport.NewHubClock(sc.N, clk)
	if err != nil {
		return nil, err
	}
	nw := newNetwork(sc, clk)
	eps := make([]transport.Transport, sc.N)
	for i := range eps {
		ep, err := hub.Endpoint(model.ProcessID(i + 1))
		if err != nil {
			_ = hub.Close()
			return nil, err
		}
		eps[i] = nw.Wrap(ep)
	}
	return &Fabric{Clock: clk, Hub: hub, Endpoints: eps}, nil
}

// maxWall is the wall-clock watchdog on a virtual run: one that cannot
// finish its schedule within it is reported wedged. Virtual-time runs
// finish in milliseconds; the watchdog only fires on a genuine livelock.
const maxWall = 15 * time.Second

// errAborted marks events whose proposals a wedge abort cut off
// (distinct from service failures, which carry their own error).
var errAborted = errors.New("chaos: run aborted")

// Submit is the virtual clock's load driver: it proposes every event at
// its At from inside a clock callback — on the driver goroutine, once,
// never retried; recorded traces and the parity golden pin exactly that
// schedule, which is why the real-clock driver, which sleeps and
// retries, is a separate function — hands each future to its own waiter
// and steps the clock until every event has its outcome. Events must be
// At-sorted, and few enough that svc's intake never blocks the driver. It
// returns one outcome record per event, in event order, with the error
// behind each one that is not TraceDecided.
//
// A healthy run resolves every future on its own. One that outlives
// virtualCap or the wall watchdog is wedged: the events not yet
// proposed fail unsubmitted and svc is aborted, which fails the rest.
// The caller closes a service that did not wedge.
func (f *Fabric) Submit(svc *service.Service, events []workload.Event, virtualCap time.Duration) (outcomes []wire.TraceOutcomeRecord, errs []error, wedged bool) {
	outcomes = make([]wire.TraceOutcomeRecord, len(events))
	errs = make([]error, len(events))
	var wg sync.WaitGroup
	wg.Add(len(events))
	resolve := func(i int, dec service.Decision, err error, latency time.Duration) {
		e := events[i]
		rec := wire.TraceOutcomeRecord{Seq: uint64(e.Seq), Class: e.Class, LatencyNanos: int64(latency)}
		switch {
		case err == nil:
			rec.Status = wire.TraceDecided
			rec.Instance, rec.Value, rec.Round, rec.Batch, rec.Class = dec.Instance, dec.Value, dec.Round, dec.Batch, dec.Class
		case errors.Is(err, adapt.ErrOverload):
			rec.Status = wire.TraceShed
		default:
			rec.Status = wire.TraceFailed
		}
		outcomes[i], errs[i] = rec, err
		wg.Done()
	}

	// Same-instant callbacks fire in registration order, so submission
	// order is event order.
	start := f.Clock.Now()
	timers := make([]clock.Timer, len(events))
	for i, e := range events {
		timers[i] = f.Clock.AfterFuncTagged(e.At, 0, func() {
			at := f.Clock.Now()
			fut, err := svc.ProposeClass(context.Background(), e.Class, e.Value)
			if err != nil {
				resolve(i, service.Decision{}, err, 0)
				return
			}
			go func() {
				dec, err := fut.Wait(context.Background())
				resolve(i, dec, err, f.Clock.Now().Sub(at))
			}()
		})
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()

	//indulgence:wallclock wedge watchdog measures real elapsed time, outside the virtual run
	wallDeadline := time.Now().Add(maxWall)
	wedged = !f.Clock.Run(done, func() bool {
		//indulgence:wallclock wedge watchdog compares real elapsed time against the wall cap
		return f.Clock.Now().Sub(start) > virtualCap || time.Now().After(wallDeadline)
	})
	if wedged {
		// Run has returned, so no callback can fire under this loop: a
		// timer that still stops is an event that was never proposed.
		for i, t := range timers {
			if t.Stop() {
				resolve(i, service.Decision{}, errAborted, 0)
			}
		}
		svc.Abort()
		<-done
	}
	return outcomes, errs, wedged
}
