package main

import (
	"context"
	"testing"
	"time"

	"indulgence/internal/adapt"
	"indulgence/internal/core"
	"indulgence/internal/model"
	"indulgence/internal/service"
	"indulgence/internal/wire"
	"indulgence/internal/workload"
)

// TestDriveHonoursRetryBudget runs drive against a service whose
// admission gate is forced shut for class 0 — slow links hold the one
// instance slot, class-1 filler saturates the two-deep intake, and
// AdmitHigh 0.5 / AdmitTicks 1 arm class-0 shedding on the next tick,
// as TestServiceAdaptiveOverload does — while AdmitTop above 1 keeps
// class 1 admitted. The class-0 event must end TraceShed after exactly
// its budget of retries (every refused attempt is one counted shed),
// and every class-1 event must outlast the overload and decide.
func TestDriveHonoursRetryBudget(t *testing.T) {
	const n, tt, fillers = 3, 1, 6
	eps, hub, closeHub, err := buildEndpoints("memory", n)
	if err != nil {
		t.Fatal(err)
	}
	defer closeHub()
	// Three rounds of 50ms hops: the first instance holds its slot well
	// past the class-0 event's arrival and all of its retries.
	hub.SetDelayFn(func(from, to model.ProcessID) time.Duration {
		if from == to {
			return 0
		}
		return 50 * time.Millisecond
	})
	factory, wait, err := core.ByName("atplus2")
	if err != nil {
		t.Fatal(err)
	}
	plane := adapt.Config{
		MaxBatch:   2,
		Interval:   time.Millisecond,
		AdmitHigh:  0.5,
		AdmitLow:   0.1,
		AdmitTicks: 1,
		Classes:    2,
		AdmitTop:   1.5, // occupancy never exceeds 1: class 1 is never shed
	}
	svc, err := service.New(service.Config{
		N: n, T: tt,
		Factory:     factory,
		WaitPolicy:  wait,
		BaseTimeout: time.Second, // no suspicions: rounds wait out the slow links
		MaxBatch:    2,
		Linger:      100 * time.Microsecond,
		MaxInflight: 1,
		Adaptive:    &plane,
	}, eps)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Abort()

	events := workload.Waves(fillers+1, 0, 0, func(i int) model.Value { return model.Value(i + 1) })
	for i := range events[:fillers] {
		events[i].Class = 1
	}
	events[fillers].At = 40 * time.Millisecond // class 0, arriving mid-overload
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	outcomes := drive(ctx, svc, events, 0)
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}

	for i, o := range outcomes[:fillers] {
		if o.Status != wire.TraceDecided || o.Class != 1 {
			t.Errorf("class-1 event %d: %+v, want decided at class 1", i, o)
		}
	}
	if o := outcomes[fillers]; o.Status != wire.TraceShed || o.Class != 0 {
		t.Errorf("class-0 event: %+v, want shed", o)
	}
	// One first attempt plus Budget = the base retry budget (3) + class (0)
	// retries, each refused and counted once.
	st := svc.Snapshot()
	if want := []int{4, 0}; len(st.OverloadsByClass) != 2 || st.OverloadsByClass[0] != want[0] || st.OverloadsByClass[1] != want[1] {
		t.Errorf("sheds by class %v (total %d), want %v", st.OverloadsByClass, st.Overloads, want)
	}
	if len(st.Violations) != 0 {
		t.Errorf("violations: %v", st.Violations)
	}
}
