package chaos

import (
	"strings"
	"testing"
	"time"
)

// TestRunMetricsSnapshot: a quiet scenario's final snapshot carries the
// consensus series, and the counters agree with the run's own result —
// the registry is an account of the same schedule, not a parallel one.
func TestRunMetricsSnapshot(t *testing.T) {
	pin(t)
	sc := Scenario{
		Seed: 7, N: 4, T: 1,
		Algorithm:       "atplus2",
		BaseTimeout:     25 * time.Millisecond,
		MaxBatch:        4,
		Linger:          2 * time.Millisecond,
		MaxInflight:     4,
		InstanceTimeout: 2 * time.Second,
		Proposals:       8,
		Waves:           2,
		WaveGap:         10 * time.Millisecond,
		Horizon:         500 * time.Millisecond,
	}
	r := Run(sc, Options{})
	if r.Err != nil {
		t.Fatalf("run: %v", r.Err)
	}
	if r.Metrics == "" {
		t.Fatal("run produced no metrics snapshot")
	}
	for _, series := range []string{
		"indulgence_proposals_total{group=\"0\"} 8",
		"indulgence_resolved_total{group=\"0\"} 8",
		"indulgence_rounds_per_decision_bucket{alg=\"A_t+2\",group=\"0\",le=",
		"indulgence_decision_latency_ns_count{group=\"0\"}",
		"indulgence_journal_entries_total{kind=\"decision\"}",
	} {
		if !strings.Contains(r.Metrics, series) {
			t.Errorf("snapshot missing %q\nsnapshot:\n%s", series, r.Metrics)
		}
	}
	// Frame counters are live-stack instruments, but the inbound total
	// depends on frames racing a retirement, not on the seed — the chaos
	// snapshot strips them.
	if strings.Contains(r.Metrics, "indulgence_frames_") {
		t.Errorf("snapshot still carries frame counters:\n%s", r.Metrics)
	}
}

// TestRunMetricsDeterministic: the same spec run twice renders a
// byte-identical metrics snapshot — the seed-replay contract extended
// to the introspection plane. Fault-laden generated scenarios exercise
// the latency and rounds histograms on virtual time, so this is also
// the histogram determinism proof: every observed duration is a pure
// function of the event schedule.
func TestRunMetricsDeterministic(t *testing.T) {
	pin(t)
	for seed := int64(1); seed <= 6; seed++ {
		sc := Generate(seed)
		a := Run(sc, Options{})
		if a.Err != nil {
			t.Fatalf("seed %d: %v", seed, a.Err)
		}
		b := Run(sc, Options{})
		if b.Err != nil {
			t.Fatalf("seed %d rerun: %v", seed, b.Err)
		}
		if a.Metrics != b.Metrics {
			t.Errorf("seed %d: metrics snapshots differ\nfirst:\n%s\nsecond:\n%s\nspec: %s",
				seed, a.Metrics, b.Metrics, sc.JSON())
		}
	}
}
