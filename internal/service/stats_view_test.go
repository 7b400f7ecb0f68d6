package service_test

import (
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	"indulgence/internal/adapt"
	"indulgence/internal/core"
	"indulgence/internal/journal"
	"indulgence/internal/metrics"
	"indulgence/internal/service"
	"indulgence/internal/transport"
)

// parseSeries maps every sample line of a Prometheus text render to its
// value, keyed by the series as rendered (name{labels}).
func parseSeries(t *testing.T, text string) map[string]int {
	t.Helper()
	out := make(map[string]int)
	for _, line := range strings.Split(text, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.Atoi(line[i+1:])
		if err != nil {
			t.Fatalf("unparsable sample %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out
}

// TestStatsIsInstrumentView: every counter in service.Stats, adapt.Stats
// and journal.Stats is a read of the instrument that counts the event, so
// a quiescent Stats equals the registry's render series for series — and
// a service built without a registry counts exactly the same, unrendered.
// Batches of one make every count the run determines a function of the
// proposal count alone; an asynchronous stretch makes the selector move,
// so more than one algorithm rung and a non-zero transition count are in
// the comparison.
func TestStatsIsInstrumentView(t *testing.T) {
	const n, tt, total = 4, 1, 96
	type result struct {
		st   service.Stats
		js   journal.Stats
		text string
	}
	run := func(reg *metrics.Registry) result {
		hub, eps := hubEndpoints(t, n)
		jn, err := journal.Open(t.TempDir(), journal.Options{Metrics: reg, SegmentBytes: 2048})
		if err != nil {
			t.Fatal(err)
		}
		defer func() { _ = jn.Close() }()
		svc, err := service.New(service.Config{
			N: n, T: tt,
			Factory:     core.New(core.Options{}),
			BaseTimeout: 4 * time.Millisecond,
			MaxBatch:    1,
			Linger:      time.Millisecond,
			MaxInflight: 16,
			Journal:     jn,
			Metrics:     reg,
			Adaptive: &adapt.Config{
				SelectAlgorithms: true,
				MaxBatch:         1,
				ClimbAfter:       3,
				Classes:          2,
				Interval:         2 * time.Millisecond,
			},
		}, eps)
		if err != nil {
			t.Fatal(err)
		}
		hub.DelayProcess(1, 20*time.Millisecond)
		time.AfterFunc(100*time.Millisecond, hub.Heal)
		driveProposals(t, svc, 16, total)
		if err := svc.Close(); err != nil {
			t.Fatal(err)
		}
		// Close cancels the control loop without waiting for it: a tick
		// already under way may still land, so take the snapshots between
		// two identical renders.
		for try := 0; ; try++ {
			before := reg.Text()
			r := result{st: svc.Snapshot(), js: jn.Snapshot(), text: reg.Text()}
			if before == r.text {
				return r
			}
			if try == 10 {
				t.Fatal("registry never went quiescent after Close")
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	r := run(metrics.NewRegistry())
	if t.Failed() {
		return
	}
	st, js, got := r.st, r.js, parseSeries(t, r.text)
	const g = `group="0"`
	want := map[string]int{
		"indulgence_proposals_total{" + g + "}":                  st.Proposals,
		"indulgence_resolved_total{" + g + "}":                   st.Resolved,
		"indulgence_failed_total{" + g + "}":                     st.Failed,
		"indulgence_decisions_total{" + g + "}":                  st.Instances,
		"indulgence_instance_failures_total{" + g + "}":          st.InstanceFailures,
		"indulgence_joined_total{" + g + "}":                     st.JoinedInstances,
		"indulgence_violations_total{" + g + "}":                 len(st.Violations),
		"indulgence_proposal_latency_ns_count{" + g + "}":        st.Latency.Count,
		"indulgence_decision_latency_ns_count{" + g + "}":        st.DecisionLatency.Count,
		"indulgence_adapt_adjustments_total{" + g + "}":          st.Control.Adjustments,
		"indulgence_adapt_ticks_total{" + g + "}":                st.Control.Ticks,
		"indulgence_adapt_selector_transitions_total{" + g + "}": st.Control.Transitions,
		"indulgence_adapt_batch_limit{" + g + "}":                st.Control.Batch,
		"indulgence_adapt_linger_ns{" + g + "}":                  int(st.Control.Linger),
		`indulgence_journal_entries_total{kind="decision"}`:      js.Decisions,
		`indulgence_journal_entries_total{kind="start"}`:         js.Starts,
		`indulgence_journal_entries_total{kind="trace"}`:         js.Traces,
		"indulgence_journal_fsyncs_total":                        js.Syncs,
		"indulgence_journal_fsync_ns_count":                      js.Syncs,
		"indulgence_journal_segments":                            js.Segments,
	}
	for c, k := range st.Control.OverloadsByClass {
		want[fmt.Sprintf(`indulgence_sheds_total{class="%d",%s}`, c, g)] = k
	}
	rounds, roundSum := 0, 0
	for alg, k := range st.Algorithms {
		labels := fmt.Sprintf(`{alg=%q,%s}`, alg, g)
		want["indulgence_rounds_per_decision_count"+labels] = k
		rounds += k
		roundSum += got["indulgence_rounds_per_decision_sum"+labels]
	}
	for series, v := range want {
		if have, ok := got[series]; !ok || have != v {
			t.Errorf("%s renders %d (present %v), Stats says %d", series, have, ok, v)
		}
	}
	if st.Rounds.Count != rounds || st.Rounds.Mean != float64(roundSum)/float64(rounds) {
		t.Errorf("Rounds %+v, the rungs' histograms hold %d decisions summing %d rounds", st.Rounds, rounds, roundSum)
	}
	if mean := got["indulgence_proposal_latency_ns_sum{"+g+"}"] / st.Latency.Count; int(st.Latency.Mean) != mean {
		t.Errorf("Latency.Mean %d, histogram sum/count %d", st.Latency.Mean, mean)
	}
	if len(st.OverloadsByClass) != 2 {
		t.Errorf("OverloadsByClass %v, want one entry per configured class", st.OverloadsByClass)
	}
	if len(st.Algorithms) < 2 || st.Control.Transitions == 0 || st.Control.Ticks == 0 || js.Syncs == 0 || js.Segments < 2 {
		t.Errorf("run too quiet to compare: algorithms %v, control %+v, journal %+v", st.Algorithms, st.Control, js)
	}

	// What the run determines is counted the same with nothing rendering it.
	bare := run(nil)
	if bare.text != "" {
		t.Errorf("nil registry rendered:\n%s", bare.text)
	}
	counts := func(r result) [14]int {
		decided := 0
		for _, k := range r.st.Algorithms {
			decided += k
		}
		return [14]int{r.st.Proposals, r.st.Resolved, r.st.Failed, r.st.Instances, r.st.InstanceFailures,
			r.st.Latency.Count, r.st.DecisionLatency.Count, r.st.Rounds.Count, decided,
			r.js.Decisions, r.js.Starts, r.js.Traces, r.st.JoinedInstances, len(r.st.Violations)}
	}
	if a, b := counts(r), counts(bare); a != b {
		t.Errorf("counts with a registry %v, without %v", a, b)
	}
	if want := [14]int{total, total, 0, total, 0, total, total, total, total, total, total, total, 0, 0}; counts(bare) != want {
		t.Errorf("counts without a registry %v, want %v", counts(bare), want)
	}
	if bare.st.Control.Ticks == 0 || bare.js.Syncs == 0 || bare.js.Segments < 2 || bare.st.BatchFill.Mean != 100 {
		t.Errorf("unrendered instruments did not count: control %+v, journal %+v, fill %+v", bare.st.Control, bare.js, bare.st.BatchFill)
	}

	// Joins happen only with a process hosted elsewhere. Two members split
	// the cluster; the one that never proposes decides only instances it
	// joined, so its joined count is its decision count, in Stats and in
	// the render alike.
	reg := metrics.NewRegistry()
	_, eps := hubEndpoints(t, n)
	member := func(eps []transport.Transport, reg *metrics.Registry) *service.Service {
		svc, err := service.New(service.Config{
			N: n, T: tt,
			Factory:     core.New(core.Options{}),
			BaseTimeout: 15 * time.Millisecond,
			JoinTimeout: 5 * time.Second,
			Metrics:     reg,
		}, eps)
		if err != nil {
			t.Fatal(err)
		}
		return svc
	}
	proposer, joiner := member(eps[:2], nil), member(eps[2:], reg)
	driveProposals(t, proposer, 4, 16)
	for _, svc := range []*service.Service{joiner, proposer} {
		if err := svc.Close(); err != nil {
			t.Fatal(err)
		}
	}
	jst := joiner.Snapshot()
	if jst.JoinedInstances == 0 || jst.JoinedInstances != jst.Instances {
		t.Errorf("joiner decided %d instances, %d of them joined; want all, at least one", jst.Instances, jst.JoinedInstances)
	}
	if have := parseSeries(t, reg.Text())["indulgence_joined_total{"+g+"}"]; have != jst.JoinedInstances {
		t.Errorf("indulgence_joined_total renders %d, Stats says %d", have, jst.JoinedInstances)
	}
}
