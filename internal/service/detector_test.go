package service_test

import (
	"math/bits"
	goruntime "runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"indulgence/internal/adapt"
	"indulgence/internal/chaos"
	"indulgence/internal/core"
	"indulgence/internal/metrics"
	"indulgence/internal/model"
	"indulgence/internal/runtime"
	"indulgence/internal/service"
	"indulgence/internal/wire"
	"indulgence/internal/workload"
)

// detectorRun is one virtual-clock service run of sequential instances
// on a chaos fabric: one proposal per instance, one instance at a time.
type detectorRun struct {
	svc        *service.Service
	outcomes   []wire.TraceOutcomeRecord
	suspicions int64 // indulgence_suspicions_total after each half
	half       int64
}

const (
	detBase      = 10 * time.Millisecond
	detInstances = 120
)

func runDetector(t *testing.T, sc chaos.Scenario, cfg service.Config) detectorRun {
	t.Helper()
	defer goruntime.GOMAXPROCS(goruntime.GOMAXPROCS(1))
	fab, err := chaos.NewFabric(sc)
	if err != nil {
		t.Fatal(err)
	}
	defer fab.Hub.Close()
	reg := metrics.NewRegistry()
	cfg.N, cfg.T = sc.N, sc.T
	cfg.Factory = core.New(core.Options{})
	cfg.BaseTimeout = detBase
	cfg.MaxBatch, cfg.MaxInflight = 1, 1
	cfg.InstanceTimeout = time.Second
	cfg.Clock, cfg.Metrics = fab.Clock, reg
	rt, err := service.New(cfg, fab.Endpoints)
	if err != nil {
		t.Fatal(err)
	}
	suspicions := func() int64 {
		const series = `indulgence_suspicions_total{group="0"} `
		for _, line := range strings.Split(reg.Text(), "\n") {
			if v, ok := strings.CutPrefix(line, series); ok {
				n, err := strconv.ParseInt(v, 10, 64)
				if err != nil {
					t.Fatal(err)
				}
				return n
			}
		}
		return 0
	}
	run := detectorRun{svc: rt}
	// Two halves, so the test can see whether suspicions still grow.
	for h := 0; h < 2; h++ {
		events := make([]workload.Event, detInstances/2)
		for i := range events {
			seq := h*len(events) + i
			events[i] = workload.Event{Seq: seq, At: time.Duration(i) * 10 * detBase, Value: model.Value(seq + 1)}
		}
		outs, errs, wedged := fab.Submit(rt, events, time.Hour)
		if wedged {
			t.Fatal("run wedged")
		}
		for i, o := range outs {
			if o.Status != wire.TraceDecided {
				t.Fatalf("proposal %d: %v", o.Seq, errs[i])
			}
		}
		run.outcomes = append(run.outcomes, outs...)
		if h == 0 {
			run.half = suspicions()
		}
	}
	run.suspicions = suspicions()
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	if v := rt.Snapshot().Violations; len(v) > 0 {
		t.Fatalf("violations: %v", v)
	}
	return run
}

// TestDetectorDiamondPAcrossInstances is the ◇P claim of fd.TimeoutDetector
// tested across a service's stream of instances, not inside one.
func TestDetectorDiamondPAcrossInstances(t *testing.T) {
	quiet := chaos.Scenario{Seed: 1, N: 4, T: 1}

	// A link slower than the base timeout for the whole run: the
	// observer's suspicions of the slow sender are bounded by the
	// doublings its timeout needs to clear the delay, ⌈log₂(3)⌉ + 1 = 3,
	// instead of growing with instances, and no suspicion at all is raised
	// in the second half of the run. In "stale", p1 never hears p4 again
	// once it suspects it — p4's frames land after p1's instance has
	// decided without them — so one suspicion stands for the whole run.
	// In "heard", p2 is crashed in every instance, so p1 needs p3's
	// frames to reach its quorum and hears each one: its timeout for p3
	// doubles until it clears the delay.
	for _, tc := range []struct {
		name           string
		n              int
		observer, slow model.ProcessID
		crashed        model.ProcessID
	}{
		{name: "stale", n: 4, observer: 1, slow: 4},
		{name: "heard", n: 3, observer: 1, slow: 3, crashed: 2},
	} {
		t.Run("slow link "+tc.name, func(t *testing.T) {
			sc := chaos.Scenario{Seed: 1, N: tc.n, T: 1,
				Links: []chaos.LinkFault{{From: tc.slow, To: tc.observer, Delay: 3 * detBase}}}
			var cfg service.Config
			if tc.crashed != 0 {
				cfg.OnInstance = func(_ uint64, cl *runtime.Cluster) { _ = cl.Crash(tc.crashed) }
			}
			run := runDetector(t, sc, cfg)
			d := run.svc.Detector(tc.observer)
			// Every ended suspicion doubled the timeout once; one may stand.
			transitions := bits.TrailingZeros64(uint64(d.TimeoutFor(tc.slow) / detBase))
			if d.Suspected().Has(tc.slow) {
				transitions++
			}
			if transitions < 1 || transitions > 3 {
				t.Errorf("p%d suspected p%d %d times over %d instances, want 1 to 3",
					tc.observer, tc.slow, transitions, detInstances)
			}
			if run.suspicions != run.half {
				t.Errorf("suspicions grew %d → %d over the second %d instances",
					run.half, run.suspicions, detInstances/2)
			}
		})
	}

	// A process crashed in every instance is suspected once per observer
	// — the first instance pays the timeout, every later one decides
	// without waiting on the dead process.
	t.Run("crashed process", func(t *testing.T) {
		run := runDetector(t, quiet, service.Config{
			OnInstance: func(_ uint64, cl *runtime.Cluster) { _ = cl.Crash(4) },
		})
		if run.suspicions != 3 {
			t.Errorf("suspicions = %d, want one per observing process (3)", run.suspicions)
		}
		for _, o := range run.outcomes[1:] {
			if lat := time.Duration(o.LatencyNanos); lat >= detBase {
				t.Errorf("proposal %d decided in %v, not under the base timeout %v", o.Seq, lat, detBase)
			}
		}
	})

	// The standing suspicion keeps the selector on the safe rung: it
	// demotes fast → guarded → safe on the first two instances and never
	// climbs back while the process stays crashed, although no instance
	// after the first raises a new transition.
	t.Run("selector", func(t *testing.T) {
		run := runDetector(t, quiet, service.Config{
			Adaptive:   &adapt.Config{SelectAlgorithms: true, ClimbAfter: 2},
			OnInstance: func(_ uint64, cl *runtime.Cluster) { _ = cl.Crash(4) },
		})
		st := run.svc.Snapshot()
		if st.Control.Transitions != 2 || st.Algorithms[core.AtPlus2Name] != detInstances-2 {
			t.Errorf("selector: %d transitions, algorithms %v; want 2 and %d on %s",
				st.Control.Transitions, st.Algorithms, detInstances-2, core.AtPlus2Name)
		}
	})
}
