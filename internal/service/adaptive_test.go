package service_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"indulgence/internal/adapt"
	"indulgence/internal/check"
	"indulgence/internal/core"
	"indulgence/internal/journal"
	"indulgence/internal/model"
	"indulgence/internal/service"
	"indulgence/internal/wire"
)

// neverDecide is a stalled algorithm: its instances hold their slots
// until the instance deadline, which is how the overload and
// backpressure tests freeze the pipeline.
type neverDecide struct{}

func (neverDecide) Name() string                          { return "never" }
func (neverDecide) StartRound(model.Round) model.Payload  { return nil }
func (neverDecide) EndRound(model.Round, []model.Message) {}
func (neverDecide) Decision() (model.Value, bool)         { return 0, false }

func neverFactory(model.ProcessContext, model.Value) (model.Algorithm, error) {
	return neverDecide{}, nil
}

// TestServiceAdaptiveSynchronousSelectsFast pins the acceptance shape of
// the selector: on a quiet, trusted cluster (generous timeouts, no
// delays) the fast algorithm A_f+2 must be selected for at least 90% of
// instances — here it is all of them, since nothing ever demotes.
func TestServiceAdaptiveSynchronousSelectsFast(t *testing.T) {
	const n, tt = 4, 1
	_, eps := hubEndpoints(t, n)
	svc, err := service.New(service.Config{
		N: n, T: tt,
		Factory:     core.New(core.Options{}),
		BaseTimeout: 50 * time.Millisecond,
		MaxBatch:    4,
		Linger:      time.Millisecond,
		MaxInflight: 8,
		Adaptive: &adapt.Config{
			SelectAlgorithms: true,
			Interval:         2 * time.Millisecond,
		},
	}, eps)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = svc.Close() }()

	const total = 64
	decs := driveProposals(t, svc, 8, total)
	if t.Failed() {
		return
	}
	if len(decs) != total {
		t.Fatalf("resolved %d of %d", len(decs), total)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	st := svc.Snapshot()
	if len(st.Violations) != 0 {
		t.Fatalf("violations: %v", st.Violations)
	}
	fast := st.Algorithms[core.AfPlus2Name]
	if st.Instances == 0 || fast*10 < st.Instances*9 {
		t.Fatalf("A_f+2 decided %d of %d instances, want >= 90%% (algorithms %v)",
			fast, st.Instances, st.Algorithms)
	}
}

// TestServiceAdaptiveMixedAlgorithms is the mixed-algorithm agreement
// test: an injected asynchronous period forces suspicions, the selector
// demotes through its ladder, concurrent instances run different
// algorithms over the same muxes — and every instance still passes
// check.Instance (zero violations), which is the entire point of
// per-instance isolation.
func TestServiceAdaptiveMixedAlgorithms(t *testing.T) {
	const n, tt = 4, 1
	hub, eps := hubEndpoints(t, n)
	svc, err := service.New(service.Config{
		N: n, T: tt,
		Factory:     core.New(core.Options{}),
		BaseTimeout: 4 * time.Millisecond,
		MaxBatch:    4,
		Linger:      time.Millisecond,
		MaxInflight: 16,
		Adaptive: &adapt.Config{
			SelectAlgorithms: true,
			ClimbAfter:       3,
			Interval:         2 * time.Millisecond,
		},
	}, eps)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = svc.Close() }()

	// Asynchronous period: p1 slower than every detector's patience for
	// the first stretch of the load, then the network heals.
	hub.DelayProcess(1, 20*time.Millisecond)
	time.AfterFunc(250*time.Millisecond, hub.Heal)

	const total = 192
	decs := driveProposals(t, svc, 16, total)
	if t.Failed() {
		return
	}
	if len(decs) != total {
		t.Fatalf("resolved %d of %d", len(decs), total)
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	st := svc.Snapshot()
	if len(st.Violations) != 0 {
		t.Fatalf("mixed-algorithm violations: %v", st.Violations)
	}
	if st.Resolved != total || st.Failed != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if len(st.Algorithms) < 2 {
		t.Fatalf("asynchronous period never mixed algorithms: %v (transitions %d)",
			st.Algorithms, st.Control.Transitions)
	}
	if st.Control.Transitions == 0 {
		t.Fatal("selector never transitioned under injected asynchrony")
	}
}

// TestServiceAdaptiveJournalTagsAcrossRestart runs an adaptive,
// journaled service through two process lifetimes with an asynchronous
// period in each, then audits the union of both lifetimes' journals:
// every decided instance must carry a tagged per-instance start claim,
// and check.Replay — including its algorithm-consistency rule — must
// hold across the restart.
func TestServiceAdaptiveJournalTagsAcrossRestart(t *testing.T) {
	const n, tt = 4, 1
	dir := t.TempDir()
	live := make(map[uint64]model.Value)

	lifetime := func(total int) {
		hub, eps := hubEndpoints(t, n)
		jn, err := journal.Open(dir, journal.Options{NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = jn.Close() }()
		svc, err := service.New(service.Config{
			N: n, T: tt,
			Factory:     core.New(core.Options{}),
			BaseTimeout: 4 * time.Millisecond,
			MaxBatch:    4,
			Linger:      time.Millisecond,
			MaxInflight: 8,
			Journal:     jn,
			Adaptive: &adapt.Config{
				SelectAlgorithms: true,
				ClimbAfter:       2,
				Interval:         2 * time.Millisecond,
			},
		}, eps)
		if err != nil {
			t.Fatal(err)
		}
		hub.DelayProcess(1, 15*time.Millisecond)
		time.AfterFunc(100*time.Millisecond, hub.Heal)
		decs := driveProposals(t, svc, 8, total)
		if err := svc.Close(); err != nil {
			t.Fatal(err)
		}
		st := svc.Snapshot()
		if len(st.Violations) != 0 {
			t.Fatalf("violations: %v", st.Violations)
		}
		for _, d := range decs {
			if prev, ok := live[d.Instance]; ok && prev != d.Value {
				t.Fatalf("instance %d resolved %d and %d across lifetimes", d.Instance, prev, d.Value)
			}
			live[d.Instance] = d.Value
		}
	}
	lifetime(64)
	lifetime(64)

	var recs []wire.DecisionRecord
	var starts []wire.StartRecord
	tagged := make(map[uint64]string)
	if _, err := journal.Replay(dir, func(e journal.Entry) error {
		switch {
		case e.Trace != nil:
			// Decision-trace entries are introspection context, not
			// claims or outcomes; the audit skips them.
		case e.Start:
			starts = append(starts, wire.StartRecord{Instance: e.Instance(), Alg: e.Alg})
			if e.Alg != "" {
				tagged[e.Instance()] = e.Alg
			}
		default:
			recs = append(recs, e.Decision)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if rep := check.Replay(recs, starts, live); !rep.OK() {
		t.Fatalf("cross-restart replay violations: %v", rep.Violations)
	}
	ladder := map[string]bool{core.AfPlus2Name: true, core.DiamondSName: true, core.AtPlus2Name: true}
	for _, r := range recs {
		alg, ok := tagged[r.Instance]
		if !ok {
			t.Fatalf("decided instance %d has no tagged start claim", r.Instance)
		}
		if !ladder[alg] {
			t.Fatalf("instance %d tagged with unknown algorithm %q", r.Instance, alg)
		}
	}
	if len(recs) == 0 || len(starts) == 0 {
		t.Fatalf("journal empty: %d decisions, %d starts", len(recs), len(starts))
	}
}

// TestServiceAdaptiveOverload freezes the pipeline with never-deciding
// instances and floods intake: admission control must start shedding
// with adapt.ErrOverload, and the sheds must show in Stats.Overloads.
// The member row floods a service hosting one process of the three at
// SLO class 1: the shed must be the typed refusal and count per class,
// exactly as for the single-process service.
func TestServiceAdaptiveOverload(t *testing.T) {
	const n, tt = 3, 1
	for _, tc := range []struct {
		name          string
		hosted, class int
	}{
		{"all hosted", n, 0},
		{"member", 1, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, eps := hubEndpoints(t, n)
			svc, err := service.New(service.Config{
				N: n, T: tt,
				Factory:         neverFactory,
				BaseTimeout:     5 * time.Millisecond,
				MaxBatch:        2,
				Linger:          100 * time.Microsecond,
				MaxInflight:     1,
				InstanceTimeout: time.Hour, // the stalled instance must hold its slot
				Adaptive: &adapt.Config{
					MaxBatch:   2, // tiny intake so the flood saturates it instantly
					Interval:   time.Millisecond,
					AdmitHigh:  0.5,
					AdmitLow:   0.1,
					AdmitTicks: 1,
					Classes:    2,
					AdmitTop:   0.5, // class 1 trips at the same occupancy as class 0
				},
			}, eps[:tc.hosted])
			if err != nil {
				t.Fatal(err)
			}
			defer svc.Abort()

			deadline := time.Now().Add(30 * time.Second)
			var shed bool
			for time.Now().Before(deadline) && !shed {
				ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
				_, err := svc.ProposeClass(ctx, tc.class, 1)
				cancel()
				switch {
				case errors.Is(err, adapt.ErrOverload):
					shed = true
					var oe *adapt.OverloadError
					if !errors.As(err, &oe) || oe.Class != tc.class {
						t.Fatalf("shed error %v (%T) is not the class-%d typed refusal", err, err, tc.class)
					}
				case err == nil, errors.Is(err, context.DeadlineExceeded):
					// Accepted (filling the queue) or blocked on a full intake —
					// keep flooding until the gate trips.
				default:
					t.Fatalf("unexpected propose error: %v", err)
				}
			}
			if !shed {
				t.Fatal("admission control never shed under a frozen pipeline")
			}
			st := svc.Snapshot()
			if st.Overloads == 0 {
				t.Fatalf("sheds not counted: %+v", st.Overloads)
			}
			if tc.class > 0 && (len(st.OverloadsByClass) != tc.class+1 || st.OverloadsByClass[tc.class] == 0) {
				t.Fatalf("class-%d sheds not counted per class: %v", tc.class, st.OverloadsByClass)
			}
		})
	}
}

// TestServiceStatsBoundaries pins the new Stats exports at their
// boundary: a service that decided nothing reports empty summaries, and
// a single decided instance yields internally consistent decision and
// round latencies.
func TestServiceStatsBoundaries(t *testing.T) {
	const n, tt = 3, 1
	_, eps := hubEndpoints(t, n)
	svc, err := service.New(service.Config{
		N: n, T: tt,
		Factory:     core.New(core.Options{}),
		BaseTimeout: 10 * time.Millisecond,
		MaxBatch:    4,
		Linger:      time.Millisecond,
		MaxInflight: 2,
	}, eps)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = svc.Close() }()

	st := svc.Snapshot()
	if st.DecisionLatency.Count != 0 || st.RoundLatency.Count != 0 || st.BatchFill.Count != 0 {
		t.Fatalf("fresh service has non-empty summaries: %+v", st)
	}
	if st.DecisionLatency.P99 != 0 || st.BatchFill.Mean != 0 {
		t.Fatalf("empty summaries not zero-valued: %+v", st)
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	fut, err := svc.Propose(ctx, 7)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := fut.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	st = svc.Snapshot()
	if st.DecisionLatency.Count != 1 || st.RoundLatency.Count != 1 || st.BatchFill.Count != 1 {
		t.Fatalf("single-instance summaries: %+v", st)
	}
	if st.DecisionLatency.Min <= 0 || st.DecisionLatency.Min != st.DecisionLatency.Max {
		t.Fatalf("decision latency of one instance: %+v", st.DecisionLatency)
	}
	// One instance: RoundLatency is exactly DecisionLatency / round.
	if want := st.DecisionLatency.Min / time.Duration(dec.Round); st.RoundLatency.Min != want {
		t.Fatalf("round latency %v, want %v (round %d)", st.RoundLatency.Min, want, dec.Round)
	}
	// A lone proposal against MaxBatch 4 fills 25%.
	if st.BatchFill.Min != 25 || st.BatchFill.Max != 25 {
		t.Fatalf("batch fill = %+v, want 25", st.BatchFill)
	}
}
