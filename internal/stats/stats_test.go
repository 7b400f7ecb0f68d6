package stats

import (
	"strings"
	"testing"
	"time"
)

func TestTableRender(t *testing.T) {
	tb := NewTable("Title", "col", "longer column")
	tb.AddRow("a", "b")
	tb.AddRowf(12, 3.5)
	got := tb.String()
	lines := strings.Split(strings.TrimRight(got, "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("rendered %d lines:\n%s", len(lines), got)
	}
	if lines[0] != "Title" {
		t.Errorf("title line %q", lines[0])
	}
	if !strings.Contains(lines[1], "col") || !strings.Contains(lines[1], "longer column") {
		t.Errorf("header line %q", lines[1])
	}
	if !strings.Contains(lines[2], "---") {
		t.Errorf("separator line %q", lines[2])
	}
	if !strings.Contains(lines[3], "a") || !strings.Contains(lines[3], "b") {
		t.Errorf("row line %q", lines[3])
	}
	if !strings.Contains(lines[4], "12") || !strings.Contains(lines[4], "3.5") {
		t.Errorf("formatted row line %q", lines[4])
	}
}

func TestTableRowPadding(t *testing.T) {
	tb := NewTable("", "a", "b")
	tb.AddRow("only")            // short row padded
	tb.AddRow("x", "y", "extra") // long row truncated
	got := tb.String()
	if strings.Contains(got, "extra") {
		t.Errorf("over-wide row not truncated:\n%s", got)
	}
	// No title line when title empty.
	if strings.HasPrefix(got, "\n") {
		t.Errorf("leading blank line:\n%q", got)
	}
}

func TestTableColumnAlignment(t *testing.T) {
	tb := NewTable("", "x", "y")
	tb.AddRow("aaaa", "b")
	tb.AddRow("c", "dddd")
	lines := strings.Split(strings.TrimRight(tb.String(), "\n"), "\n")
	// The second column must start at the same offset in both rows.
	off1 := strings.Index(lines[2], "b")
	off2 := strings.Index(lines[3], "dddd")
	if off1 != off2 {
		t.Errorf("column misaligned: %d vs %d\n%s", off1, off2, tb)
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]int{3, 1, 2})
	if s.Count != 3 || s.Min != 1 || s.Max != 3 || s.Mean != 2 {
		t.Fatalf("summary = %+v", s)
	}
	if Summarize(nil).Count != 0 {
		t.Fatal("empty summary")
	}
	if s.String() == "" {
		t.Fatal("empty String()")
	}
}

func TestQuantile(t *testing.T) {
	ds := []time.Duration{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	// Nearest-rank: index ⌈q·n⌉−1, so p50 of 10 samples is the 5th value
	// and p90 the 9th — the maximum is reached only at q = 1 (or when
	// ⌈q·n⌉ = n, as for p99 here).
	cases := []struct {
		q    float64
		want time.Duration
	}{
		{0, 10}, {0.5, 50}, {0.9, 90}, {0.99, 100}, {1, 100}, {-1, 10}, {2, 100},
	}
	for _, c := range cases {
		if got := Quantile(ds, c.q); got != c.want {
			t.Errorf("Quantile(q=%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if got := Quantile(nil, 0.5); got != 0 {
		t.Errorf("Quantile(nil) = %v, want 0", got)
	}
}

func TestSummarizeDurations(t *testing.T) {
	if s := SummarizeDurations(nil); s != (LatencySummary{}) {
		t.Fatalf("empty summary = %+v", s)
	}
	// Deliberately unsorted input; it must not be mutated.
	ds := []time.Duration{30 * time.Millisecond, 10 * time.Millisecond, 20 * time.Millisecond}
	s := SummarizeDurations(ds)
	if ds[0] != 30*time.Millisecond {
		t.Fatal("input slice was mutated")
	}
	if s.Count != 3 || s.Min != 10*time.Millisecond || s.Max != 30*time.Millisecond ||
		s.Mean != 20*time.Millisecond || s.P50 != 20*time.Millisecond {
		t.Fatalf("summary = %+v", s)
	}
	if s.String() == "" {
		t.Fatal("empty String()")
	}
}

// TestQuantileEdgeCases is the table-driven boundary sweep of the
// nearest-rank rule: empty and single-sample inputs, the q=0/q=1
// extremes, and ranks that land exactly on and just past sample
// boundaries.
func TestQuantileEdgeCases(t *testing.T) {
	cases := []struct {
		name   string
		sorted []time.Duration
		q      float64
		want   time.Duration
	}{
		{"empty q=0", nil, 0, 0},
		{"empty q=0.5", nil, 0.5, 0},
		{"empty q=1", nil, 1, 0},
		{"single q=0", []time.Duration{42}, 0, 42},
		{"single q=0.5", []time.Duration{42}, 0.5, 42},
		{"single q=1", []time.Duration{42}, 1, 42},
		{"single q<0", []time.Duration{42}, -0.1, 42},
		{"single q>1", []time.Duration{42}, 1.1, 42},
		{"pair q=0", []time.Duration{1, 2}, 0, 1},
		// ⌈0.5·2⌉−1 = 0: the median of two samples is the lower one.
		{"pair q=0.5", []time.Duration{1, 2}, 0.5, 1},
		// ⌈0.51·2⌉−1 = 1: just past the boundary selects the upper.
		{"pair q=0.51", []time.Duration{1, 2}, 0.51, 2},
		{"pair q=1", []time.Duration{1, 2}, 1, 2},
		// ⌈0.25·4⌉−1 = 0 lands exactly on the first rank boundary.
		{"quad q=0.25", []time.Duration{1, 2, 3, 4}, 0.25, 1},
		{"quad q=0.26", []time.Duration{1, 2, 3, 4}, 0.26, 2},
		// q=0.75 of 4: ⌈3⌉−1 = 2.
		{"quad q=0.75", []time.Duration{1, 2, 3, 4}, 0.75, 3},
		// A q so close to 1 that ⌈q·n⌉ = n must clamp to the maximum,
		// not index past the slice.
		{"quad q=0.999", []time.Duration{1, 2, 3, 4}, 0.999, 4},
	}
	for _, c := range cases {
		if got := Quantile(c.sorted, c.q); got != c.want {
			t.Errorf("%s: Quantile = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestSummarizeDurationsEdgeCases covers the degenerate distributions:
// no samples, one sample (every statistic collapses to it), and
// all-equal samples.
func TestSummarizeDurationsEdgeCases(t *testing.T) {
	cases := []struct {
		name string
		in   []time.Duration
		want LatencySummary
	}{
		{"empty", nil, LatencySummary{}},
		{"single", []time.Duration{5 * time.Millisecond}, LatencySummary{
			Count: 1,
			Min:   5 * time.Millisecond, Max: 5 * time.Millisecond,
			Mean: 5 * time.Millisecond,
			P50:  5 * time.Millisecond, P90: 5 * time.Millisecond, P99: 5 * time.Millisecond,
			P999: 5 * time.Millisecond,
		}},
		{"all equal", []time.Duration{7, 7, 7}, LatencySummary{
			Count: 3, Min: 7, Max: 7, Mean: 7, P50: 7, P90: 7, P99: 7, P999: 7,
		}},
	}
	for _, c := range cases {
		if got := SummarizeDurations(c.in); got != c.want {
			t.Errorf("%s: summary = %+v, want %+v", c.name, got, c.want)
		}
	}
}

// TestSummarizeDurationsP999Boundary pins the nearest-rank boundary of
// the 99.9th percentile: below 1000 samples ⌈0.999·n⌉ = n, so P999
// coincides with the maximum; at exactly 1000 samples it first
// separates, selecting the second-highest observation.
func TestSummarizeDurationsP999Boundary(t *testing.T) {
	ramp := func(n int) []time.Duration {
		ds := make([]time.Duration, n)
		for i := range ds {
			ds[i] = time.Duration(i + 1)
		}
		return ds
	}
	cases := []struct {
		n    int
		want time.Duration
	}{
		// ⌈0.999·999⌉ = 999 → the maximum itself.
		{999, 999},
		// ⌈0.999·1000⌉ = 999 → rank 998, one below the maximum.
		{1000, 999},
		// ⌈0.999·2000⌉ = 1998 → two tail samples above it.
		{2000, 1998},
	}
	for _, c := range cases {
		s := SummarizeDurations(ramp(c.n))
		if s.P999 != c.want {
			t.Errorf("n=%d: P999 = %d, want %d", c.n, s.P999, c.want)
		}
		if got := Quantile(ramp(c.n), 0.999); got != c.want {
			t.Errorf("n=%d: Quantile(0.999) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestSummarizeEdgeCases(t *testing.T) {
	if s := Summarize([]int{9}); s.Count != 1 || s.Min != 9 || s.Max != 9 || s.Mean != 9 {
		t.Fatalf("single-sample summary = %+v", s)
	}
	if s := Summarize([]int{-2, 2}); s.Min != -2 || s.Max != 2 || s.Mean != 0 {
		t.Fatalf("signed summary = %+v", s)
	}
}

// TestRunningMatchesSummarize: the constant-memory accumulator reports
// exactly what Summarize does over the same observations, including past
// the size any bounded sample would have clamped Count at.
func TestRunningMatchesSummarize(t *testing.T) {
	long := make([]int, 1<<17)
	for i := range long {
		long[i] = (i*7919)%1000 - 3
	}
	for _, tc := range []struct {
		name string
		xs   []int
	}{
		{"empty", nil},
		{"single", []int{9}},
		{"single zero", []int{0}},
		{"signed", []int{-2, 2}},
		{"all negative", []int{-5, -1, -9}},
		{"descending", []int{4, 3, 3, 1}},
		{"rounds at the floor", []int{3, 3, 4, 3, 5, 3}},
		{"longer than a reservoir", long},
	} {
		var r Running
		for _, x := range tc.xs {
			r.Add(x)
		}
		if got, want := r.Summary(), Summarize(tc.xs); got != want {
			t.Errorf("%s: running %+v, Summarize %+v", tc.name, got, want)
		}
	}
}

func TestReservoir(t *testing.T) {
	r := NewReservoirSeeded[int](4, 1)
	for i := 1; i <= 3; i++ {
		r.Add(i)
	}
	if got := r.Values(); len(got) != 3 || r.Seen() != 3 {
		t.Fatalf("under-full reservoir: %v seen=%d", got, r.Seen())
	}
	for i := 4; i <= 1000; i++ {
		r.Add(i)
	}
	if got := r.Values(); len(got) != 4 || r.Seen() != 1000 {
		t.Fatalf("full reservoir: %v seen=%d", got, r.Seen())
	}
	for _, v := range r.Values() {
		if v < 1 || v > 1000 {
			t.Fatalf("sample %d outside the stream", v)
		}
	}
	if NewReservoirSeeded[int](0, 1).capacity != 1<<16 {
		t.Fatal("default capacity not applied")
	}
}
