package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"indulgence"
	"indulgence/internal/adapt"
	"indulgence/internal/check"
	"indulgence/internal/metrics"
	"indulgence/internal/model"
	"indulgence/internal/payload"
	"indulgence/internal/wire"
)

// The ladder times a fixed number of calls into one layer's exported
// functions, from outside: ladderReps repetitions, median ns/op and
// allocs/op. Each row has one home workload — the one whose end-to-end
// numbers the layer should move — and is measured in that workload's
// traced run only, after its stack is down.
const ladderReps = 5

// timeOps runs fn(ops) ladderReps times and returns the median
// nanoseconds and heap allocations per operation.
func timeOps(ops int, fn func(n int) error) (nsPerOp, allocsPerOp float64, err error) {
	var ns, allocs []float64
	var before, after runtime.MemStats
	for rep := 0; rep < ladderReps; rep++ {
		runtime.ReadMemStats(&before)
		begin := time.Now()
		if err := fn(ops); err != nil {
			return 0, 0, err
		}
		took := time.Since(begin)
		runtime.ReadMemStats(&after)
		ns = append(ns, float64(took)/float64(ops))
		allocs = append(allocs, float64(after.Mallocs-before.Mallocs)/float64(ops))
	}
	return median(ns), median(allocs), nil
}

// runLadder measures the rows whose home is the given workload.
func runLadder(home string, e *env, res *runResult) error {
	rows := map[string][]func(*env, *runResult) error{
		"mem_sat":      {ladderWire, ladderHub, ladderMux, ladderInstance, ladderMetrics, ladderCheck},
		"mem_durable":  {ladderJournal},
		"tcp_peers":    {ladderTCP},
		"wan_adaptive": {ladderAdapt},
		"explore":      {ladderSim},
	}
	for _, row := range rows[home] {
		if err := row(e, res); err != nil {
			return err
		}
	}
	return nil
}

// ladderFrame is the codec row's message: an EstHalt with a populated
// Halt set, the densest common payload (BenchmarkMicroWireRoundTrip's).
var ladderMessage = model.Message{From: 3, Round: 7,
	Payload: payload.EstHalt{Est: -12345, Halt: model.NewPIDSet(1, 3, 5, 7)}}

func ladderFrame() ([]byte, error) {
	return wire.EncodeMessage(nil, ladderMessage)
}

func ladderWire(_ *env, res *runResult) error {
	const ops = 200_000
	buf := make([]byte, 0, 64)
	frame, err := wire.EncodeInstanceMessage(nil, 12345, ladderMessage)
	if err != nil {
		return err
	}
	encode := func(n int) error {
		for i := 0; i < n; i++ {
			if _, err := wire.EncodeMessage(wire.AppendInstanceHeader(buf[:0], uint64(i)), ladderMessage); err != nil {
				return err
			}
		}
		return nil
	}
	decode := func(n int) error {
		for i := 0; i < n; i++ {
			_, inner, err := wire.StripInstance(frame)
			if err != nil {
				return err
			}
			if _, _, err := wire.DecodeMessage(inner); err != nil {
				return err
			}
		}
		return nil
	}
	encNs, encAllocs, err := timeOps(ops, encode)
	if err != nil {
		return err
	}
	decNs, decAllocs, err := timeOps(ops, decode)
	if err != nil {
		return err
	}
	res.set("wire.encode_ns", encNs, ops*ladderReps)
	res.set("wire.decode_ns", decNs, ops*ladderReps)
	res.set("wire.roundtrip_allocs", encAllocs+decAllocs, ops*ladderReps)
	return nil
}

// hop sends one frame from a to process `to` and waits for it on b.
func hop(a, b indulgence.Transport, to indulgence.ProcessID, frame []byte) error {
	if err := a.Send(to, frame); err != nil {
		return err
	}
	if _, ok := <-b.Recv(); !ok {
		return fmt.Errorf("endpoint %d closed mid-hop", b.Self())
	}
	return nil
}

func hubEndpoints(n int) (*indulgence.Hub, []indulgence.Transport, error) {
	hub, err := indulgence.NewHub(n)
	if err != nil {
		return nil, nil, err
	}
	eps := make([]indulgence.Transport, n)
	for i := range eps {
		if eps[i], err = hub.Endpoint(indulgence.ProcessID(i + 1)); err != nil {
			hub.Close()
			return nil, nil, err
		}
	}
	return hub, eps, nil
}

// ladderHub times the mailbox put -> pump -> recv path across a Hub.
func ladderHub(_ *env, res *runResult) error {
	const ops = 20_000
	hub, eps, err := hubEndpoints(2)
	if err != nil {
		return err
	}
	defer hub.Close()
	frame, err := ladderFrame()
	if err != nil {
		return err
	}
	ns, allocs, err := timeOps(ops, func(n int) error {
		for i := 0; i < n; i++ {
			if err := hop(eps[0], eps[1], 2, frame); err != nil {
				return err
			}
		}
		return nil
	})
	res.set("transport.hub_hop_ns", ns, ops*ladderReps)
	res.set("transport.hub_hop_allocs", allocs, ops*ladderReps)
	return err
}

// ladderMux times the same hop through Mux streams, and the per-instance
// stream set-up (Open + Retire of one instance on four muxes).
func ladderMux(_ *env, res *runResult) error {
	const hopOps, openOps = 20_000, 5_000
	hub, eps, err := hubEndpoints(clusterN)
	if err != nil {
		return err
	}
	defer hub.Close()
	muxes := make([]*indulgence.Mux, clusterN)
	for i, ep := range eps {
		muxes[i] = indulgence.NewMux(ep)
		defer muxes[i].Close()
	}
	frame, err := ladderFrame()
	if err != nil {
		return err
	}
	a, err := muxes[0].Open(1)
	if err != nil {
		return err
	}
	b, err := muxes[1].Open(1)
	if err != nil {
		return err
	}
	ns, allocs, err := timeOps(hopOps, func(n int) error {
		for i := 0; i < n; i++ {
			if err := hop(a, b, 2, frame); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	res.set("transport.mux_hop_ns", ns, hopOps*ladderReps)
	res.set("transport.mux_hop_allocs", allocs, hopOps*ladderReps)

	next := uint64(2)
	ns, allocs, err = timeOps(openOps, func(n int) error {
		for i := 0; i < n; i++ {
			for _, m := range muxes {
				if _, err := m.Open(next); err != nil {
					return err
				}
			}
			for _, m := range muxes {
				m.Retire(next)
			}
			next++
		}
		return nil
	})
	res.set("transport.mux_open_ns", ns, openOps*ladderReps)
	res.set("transport.mux_open_allocs", allocs, openOps*ladderReps)
	return err
}

// ladderInstance times what the service does per instance, minus
// batching: open the instance's streams on four muxes over a quiet Hub,
// NewCluster + Run to a decision, retire.
func ladderInstance(_ *env, res *runResult) error {
	const ops = 300
	hub, eps, err := hubEndpoints(clusterN)
	if err != nil {
		return err
	}
	defer hub.Close()
	muxes := make([]*indulgence.Mux, clusterN)
	for i, ep := range eps {
		muxes[i] = indulgence.NewMux(ep)
		defer muxes[i].Close()
	}
	factory := algorithm()
	props := []indulgence.Value{4, 3, 2, 1}
	next := uint64(1)
	ns, allocs, err := timeOps(ops, func(n int) error {
		for i := 0; i < n; i++ {
			streams := make([]indulgence.Transport, clusterN)
			for j, m := range muxes {
				if streams[j], err = m.Open(next); err != nil {
					return err
				}
			}
			cl, err := indulgence.NewCluster(indulgence.ClusterConfig{
				N: clusterN, T: clusterT, Factory: factory, Proposals: props,
				Endpoints: streams, BaseTimeout: baseTimeout,
			})
			if err != nil {
				return err
			}
			results, err := cl.Run(context.Background())
			if err != nil {
				return err
			}
			for _, r := range results {
				if v, ok := r.Decision.Get(); !ok || v != 1 {
					return fmt.Errorf("ladder instance %d: p%d decided %v", next, r.ID, r.Decision)
				}
			}
			for _, m := range muxes {
				m.Retire(next)
			}
			next++
		}
		return nil
	})
	res.set("runtime.instance_us", ns/1e3, ops*ladderReps)
	res.set("runtime.instance_allocs", allocs, ops*ladderReps)
	return err
}

// ladderTCP times one frame, and a 64-frame burst (the coalesced write),
// over a loopback TCPCluster.
func ladderTCP(_ *env, res *runResult) error {
	const hops, bursts, burst = 2_000, 200, 64
	tc, err := indulgence.NewTCPCluster(2)
	if err != nil {
		return err
	}
	defer tc.Close()
	a, err := tc.Endpoint(1)
	if err != nil {
		return err
	}
	b, err := tc.Endpoint(2)
	if err != nil {
		return err
	}
	frame, err := ladderFrame()
	if err != nil {
		return err
	}
	ns, _, err := timeOps(hops, func(n int) error {
		for i := 0; i < n; i++ {
			if err := hop(a, b, 2, frame); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	res.set("transport.tcp_hop_ns", ns, hops*ladderReps)
	ns, _, err = timeOps(bursts, func(n int) error {
		for i := 0; i < n; i++ {
			for j := 0; j < burst; j++ {
				if err := a.Send(2, frame); err != nil {
					return err
				}
			}
			for j := 0; j < burst; j++ {
				if _, ok := <-b.Recv(); !ok {
					return fmt.Errorf("tcp endpoint closed mid-burst")
				}
			}
		}
		return nil
	})
	res.set("transport.tcp_burst_frame_ns", ns/burst, bursts*burst*ladderReps)
	return err
}

// ladderJournal times Append under group commit: 32 concurrent callers,
// real fsync, a fresh directory.
func ladderJournal(e *env, res *runResult) error {
	const callers, perCaller = 32, 40
	dir, err := os.MkdirTemp(e.dir, "ladder-journal-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	j, err := indulgence.OpenJournal(dir, indulgence.JournalOptions{})
	if err != nil {
		return err
	}
	defer j.Close()
	var (
		wg   sync.WaitGroup
		took = make([][]float64, callers)
		errs = make([]error, callers)
	)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perCaller && errs[c] == nil; i++ {
				rec := indulgence.DecisionRecord{Instance: uint64(c*perCaller + i), Value: 1, Round: clusterT + 2, Batch: 1}
				begin := time.Now()
				errs[c] = j.Append(rec)
				took[c] = append(took[c], us(time.Since(begin)))
			}
		}()
	}
	wg.Wait()
	var all []float64
	for c := range took {
		if errs[c] != nil {
			return errs[c]
		}
		all = append(all, took[c]...)
	}
	sort.Float64s(all)
	st := j.Snapshot()
	res.set("journal.append_us_p50", percentile(all, 0.50), len(all))
	res.set("journal.appends_per_fsync", float64(st.Appends)/max(float64(st.Syncs), 1), st.Syncs)
	return nil
}

func ladderAdapt(_ *env, res *runResult) error {
	const ops = 200_000
	static := adapt.Choice{Name: algorithmName(algorithm()), Factory: algorithm()}
	plane := adapt.NewPlane(adapt.Config{SelectAlgorithms: true}, static,
		adapt.Setting{Batch: maxBatch, Linger: linger}, clusterN, clusterT)
	ns, _, err := timeOps(ops, func(n int) error {
		for i := 0; i < n; i++ {
			plane.PickContext()
		}
		return nil
	})
	if err != nil {
		return err
	}
	res.set("adapt.pick_ns", ns, ops*ladderReps)
	ns, _, err = timeOps(ops, func(n int) error {
		for i := 0; i < n; i++ {
			plane.Tick(0, maxBatch*maxInflight, 0, maxInflight)
		}
		return nil
	})
	res.set("adapt.tick_ns", ns, ops*ladderReps)
	return err
}

func ladderMetrics(_ *env, res *runResult) error {
	const ops = 1_000_000
	reg := metrics.NewRegistry()
	h := reg.Histogram("ladder_latency_ns", "ladder row", 1<<12, 1<<34)
	c := reg.Counter("ladder_total", "ladder row")
	ns, _, err := timeOps(ops, func(n int) error {
		for i := 0; i < n; i++ {
			h.Observe(int64(i) << 8)
			c.Inc()
		}
		return nil
	})
	res.set("metrics.observe_ns", ns, ops*ladderReps)
	return err
}

func ladderCheck(_ *env, res *runResult) error {
	const ops = 200_000
	props := []model.Value{4, 3, 2, 1}
	decided := []model.OptValue{model.Some(1), model.Some(1), model.Some(1), model.Some(1)}
	ns, _, err := timeOps(ops, func(n int) error {
		for i := 0; i < n; i++ {
			if rep := check.Instance(decided, props, 0); !rep.OK() {
				return rep.Err()
			}
		}
		return nil
	})
	res.set("check.instance_ns", ns, ops*ladderReps)
	return err
}

// ladderSim times the explorer's per-run cost: a pooled, traceless
// Simulator.Run, n=5, t=2, failure-free.
func ladderSim(_ *env, res *runResult) error {
	const ops = 20_000
	sm := indulgence.NewSimulator()
	cfg := indulgence.SimConfig{
		Synchrony: indulgence.ES, Schedule: indulgence.FailureFree(5, 2),
		Proposals: []indulgence.Value{3, 1, 4, 1, 5}, Factory: algorithm(),
		SkipTrace: true, SkipValidation: true,
	}
	ns, allocs, err := timeOps(ops, func(n int) error {
		for i := 0; i < n; i++ {
			if _, err := sm.Run(cfg); err != nil {
				return err
			}
		}
		return nil
	})
	res.set("sim.run_ns", ns, ops*ladderReps)
	res.set("sim.run_allocs", allocs, ops*ladderReps)
	return err
}
