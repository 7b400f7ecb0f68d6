package main

import (
	"bytes"
	"math"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, c := range []struct{ q, want float64 }{{0.50, 50}, {0.95, 95}, {0.99, 99}, {1, 100}, {0.001, 1}} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := percentile(nil, 0.5); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := percentile([]float64{7}, 0.95); got != 7 {
		t.Errorf("percentile of one sample = %v, want it", got)
	}
}

// A percentile is reported only with at least ten samples beyond it.
func TestTailSupportedSampleCountRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		q    float64
		want bool
	}{
		{199, 0.95, false}, // ceil(189.05)=190 → 9 beyond
		{200, 0.95, true},  // 190 → 10 beyond
		{999, 0.99, false},
		{1000, 0.99, true},
		{9999, 0.999, false},
		{10000, 0.999, true},
		{3, 0.95, false},
	} {
		if got := tailSupported(c.n, c.q); got != c.want {
			t.Errorf("tailSupported(%d, %v) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
}

func TestMedianOfWindows(t *testing.T) {
	// Three full one-second windows holding 2, 4 and 3 events, and a
	// partial fourth that must not count.
	at := []time.Duration{
		100 * time.Millisecond, 900 * time.Millisecond,
		1000 * time.Millisecond, 1200 * time.Millisecond, 1500 * time.Millisecond, 1999 * time.Millisecond,
		2000 * time.Millisecond, 2500 * time.Millisecond, 2999 * time.Millisecond,
		3100 * time.Millisecond, 3200 * time.Millisecond, 3300 * time.Millisecond, 3400 * time.Millisecond, 3450 * time.Millisecond,
		-5 * time.Millisecond, // before the interval
	}
	rates := windowRates(at, 3500*time.Millisecond, time.Second)
	if want := []float64{2, 4, 3}; !reflect.DeepEqual(rates, want) {
		t.Fatalf("windowRates = %v, want %v", rates, want)
	}
	if got := median(rates); got != 3 {
		t.Errorf("median of windows = %v, want 3", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of an even count = %v, want 2.5", got)
	}
	if got := windowRates(at, 500*time.Millisecond, time.Second); got != nil {
		t.Errorf("an interval shorter than a window has no complete window, got %v", got)
	}
}

// quartileSpread must agree with Python's statistics.quantiles(n=4), the
// driver's rule.
func TestQuartileSpreadMatchesPythonExclusiveMethod(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5} // quantiles(1..10) = [2.75, 5.5, 8.25]
	if got, want := quartileSpread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread(1..10) = %v, want %v", got, want)
	}
	// quantiles([1, 2, 4]) = [1.0, 2.0, 4.0]
	if got, want := quartileSpread([]float64{1, 2, 4}), 3.0/2; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread(1,2,4) = %v, want %v", got, want)
	}
	// quantiles([1, 3]) = [0.5, 2.0, 3.5]: the clamped, extrapolating case.
	if got, want := quartileSpread([]float64{1, 3}), 3.0/2; math.Abs(got-want) > 1e-12 {
		t.Errorf("quartileSpread(1,3) = %v, want %v", got, want)
	}
	if got := quartileSpread([]float64{5}); got != 0 {
		t.Errorf("one observation has no spread, got %v", got)
	}
}

func TestWindowedPercentileIgnoresOneStalledWindow(t *testing.T) {
	var at []time.Duration
	var v []float64
	for w := 0; w < 5; w++ {
		for i := 0; i < 100; i++ {
			at = append(at, time.Duration(w)*time.Second+time.Duration(i)*time.Millisecond)
			x := float64(i + 1) // 1..100 in every window
			if w == 3 {
				x *= 50 // a stall lands in the fourth window
			}
			v = append(v, x)
		}
	}
	at = append(at, 5200*time.Millisecond) // the partial sixth window does not count
	v = append(v, 1e9)
	for _, c := range []struct{ q, want float64 }{{0.50, 50}, {0.90, 90}} {
		got, n := windowedPercentile(at, v, 5500*time.Millisecond, time.Second, c.q)
		if got != c.want || n != 500 {
			t.Errorf("windowedPercentile(q=%v) = %v over %d, want %v over 500", c.q, got, n, c.want)
		}
	}
	if got, n := windowedPercentile(at, v, 500*time.Millisecond, time.Second, 0.5); got != 0 || n != 0 {
		t.Errorf("no complete window: got %v over %d", got, n)
	}
}

func TestSelfTimeSubtractsChildrenOnce(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "proposal", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},  // overlaps a by 10
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 130}, // reaches 30 past the parent
		{ID: 5, Parent: 2, Name: "grandchild", Start: 15, End: 20},
		{ID: 6, Name: "lone", Start: 5, End: 9},
	}
	self := selfTimes(spans)
	want := map[int64]int64{
		1: 100 - (30 + 20 + 10), // a, the part of b past a, c clipped to the parent
		2: 30 - 5,
		3: 30,
		4: 40,
		5: 5,
		6: 4,
	}
	if !reflect.DeepEqual(self, want) {
		t.Errorf("selfTimes = %v, want %v", self, want)
	}
}

func TestScheduleIsAPureFunctionOfSeed(t *testing.T) {
	spec := findWorkload("wan_adaptive").live
	interval := 3 * time.Second
	a, b := schedule(7, spec, interval), schedule(7, spec, interval)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two different schedules")
	}
	if c := schedule(8, spec, interval); reflect.DeepEqual(a, c) {
		t.Fatal("two seeds gave the same schedule")
	}
	if !sort.SliceIsSorted(a, func(i, j int) bool { return a[i] < a[j] }) {
		t.Error("arrival offsets are not in order")
	}
	want := 0.0
	for _, p := range spec.cycle {
		want += spec.rate * p.rate * p.share * interval.Seconds()
	}
	if got := float64(len(a)); math.Abs(got-want) > 0.05*want {
		t.Errorf("%v arrivals in %v, want about %.0f", got, interval, want)
	}
	if last := a[len(a)-1]; last >= interval {
		t.Errorf("arrival at %v is past the %v interval", last, interval)
	}
	// The idle phase of the first cycle holds no arrival.
	cycle := interval / 3
	idleFrom, idleTo := cycle*8/9, cycle
	for _, at := range a {
		if at > idleFrom+time.Millisecond && at < idleTo-time.Millisecond {
			t.Fatalf("arrival at %v inside the idle phase [%v, %v]", at, idleFrom, idleTo)
		}
	}
}

func TestVerdictAtInsideAndOutsideTheBound(t *testing.T) {
	lower := metricDef{Name: "latency_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "decisions_per_s", Better: "higher", Bound: 0.10}
	for _, c := range []struct {
		d            metricDef
		a, b, spread float64
		want         string
	}{
		{lower, 100, 105, 0.01, verdictWithin},
		{lower, 100, 110, 0.01, verdictWithin}, // exactly at the bound is not "by more than"
		{lower, 100, 110.1, 0.01, verdictWorse},
		{lower, 100, 89, 0.01, verdictBetter},
		{lower, 100, 90, 0.01, verdictWithin},
		{higher, 1000, 950, 0.01, verdictWithin},
		{higher, 1000, 900, 0.01, verdictWithin},
		{higher, 1000, 899, 0.01, verdictWorse},
		{higher, 1000, 1101, 0.01, verdictBetter},
		{lower, 100, 130, 0.11, verdictUnresolved}, // spread wider than the bound
		{lower, 100, 100, 0.10, verdictWithin},     // spread at the bound still resolves
	} {
		if got := verdict(c.d, c.a, c.b, c.spread); got != c.want {
			t.Errorf("verdict(%s, %v -> %v, spread %v) = %q, want %q", c.d.Name, c.a, c.b, c.spread, got, c.want)
		}
	}
}

func TestCompareRefusesAPartialBaselineAndCountsBadPairs(t *testing.T) {
	m := &manifest{EndToEnd: []metricDef{
		{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
		{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.10},
	}}
	base := &resultFile{Rows: []row{
		{"mem_sat", "setup_s", "s", 1.0, 10, 0.30}, // set-up's spread is exempt, its median is not
		{"mem_sat", "latency_p50_ms", "ms", 1.0, 10, 0.02},
		{"explore", "latency_p50_ms", "ms", 3000, 10, 0.02},
		{"explore", "lowerbound.runs", "count", 461953, 1, 0},
	}}
	next := &resultFile{Rows: []row{
		{"mem_sat", "setup_s", "s", 1.1, 10, 0.30},
		{"mem_sat", "latency_p50_ms", "ms", 1.2, 10, 0.02},
		{"explore", "latency_p50_ms", "ms", 3010, 10, 0.02},
		{"explore", "lowerbound.runs", "count", 461952, 1, 0},
	}}
	var out bytes.Buffer
	bad, err := compare(&out, m, base, next)
	if err != nil {
		t.Fatal(err)
	}
	if bad != 2 {
		t.Errorf("%d bad pairs, want 2 (one worse, one count that must repeat exactly):\n%s", bad, out.String())
	}
	if !strings.Contains(out.String(), verdictWorse) || !strings.Contains(out.String(), verdictWithin) {
		t.Errorf("output names neither verdict:\n%s", out.String())
	}
	base.Partial = true
	if _, err := compare(&out, m, base, next); err == nil {
		t.Error("a partial baseline was accepted")
	}
	base.Partial, next.Partial = false, true
	if _, err := compare(&out, m, base, next); err != nil {
		t.Errorf("a partial file on the new side must compare: %v", err)
	}
}

// BENCHMARK.json is what the driver and -compare read; spec.go is what
// the program measures. They must name the same things.
func TestManifestAgreesWithSpec(t *testing.T) {
	m, err := readManifest("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if m.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, defaultSeconds %d", m.RunSeconds, defaultSeconds)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in spec.go", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.name || m.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), spec.go %q (%q)", i, m.Workloads[i].Name, m.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.name, len(w.why))
		}
	}
	if !reflect.DeepEqual(m.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n BENCHMARK.json %v\n spec.go        %v", m.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(m.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n BENCHMARK.json %v\n spec.go        %v", m.PerLayer, perLayer)
	}
	seen := map[string]bool{}
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			if seen[d.Name] {
				t.Errorf("metric %s declared twice", d.Name)
			}
			seen[d.Name] = true
		}
	}
}

// The harness end to end on the smallest live workload: it must build
// the stack through the façade, decide, audit clean and report every
// end-to-end metric. No timing is asserted.
func TestMemSatSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the live stack for a second")
	}
	e := &env{seed: 3, seconds: 1, dir: t.TempDir()}
	res, err := runWorkload(findWorkload("mem_sat"), e, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.findings) != 0 || res.failed != 0 || res.attempted == 0 {
		t.Fatalf("attempted %d, failed %d, findings %v", res.attempted, res.failed, res.findings)
	}
	for _, d := range endToEnd {
		if s, ok := res.metrics[d.Name]; !ok || s.Value <= 0 {
			t.Errorf("end-to-end metric %s = %v (measured %v)", d.Name, s.Value, ok)
		}
	}
	if entries, _ := os.ReadDir(e.dir); len(entries) != 0 {
		t.Errorf("the run left %d entries in its scratch directory", len(entries))
	}
}

// The traced pass on an open loop: decorators, spans and the services'
// own counters must all produce readings. Lateness is not asserted (the
// traced pass only reports it), so a loaded box cannot fail this.
func TestCrashOpenTracedSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the live stack for a second")
	}
	e := &env{seed: 4, seconds: 1, dir: t.TempDir()}
	res, err := runWorkload(findWorkload("crash_open"), e, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.findings) != 0 || res.failed != 0 {
		t.Fatalf("failed %d, findings %v", res.failed, res.findings)
	}
	for _, name := range []string{
		"wire.bytes_per_frame", "transport.frames_per_decision", "runtime.rounds_per_decision",
		"core.step_us_per_decision", "service.decision_ms_mean", "service.batch_mean",
		"process.cpu_us_per_decision", "trace.spans",
	} {
		if s := res.metrics[name]; s.Value <= 0 {
			t.Errorf("per-layer metric %s = %v", name, s.Value)
		}
	}
	roots := 0
	for _, s := range e.spans {
		if s.Name == "proposal" {
			roots++
		}
		if s.End < s.Start {
			t.Fatalf("span %+v ends before it starts", s)
		}
	}
	if roots == 0 {
		t.Error("no root span was kept")
	}
}
