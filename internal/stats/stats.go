// Package stats aggregates the measurements the repository reports —
// round-complexity summaries of simulated runs and wall-clock latency
// distributions of the live service — and renders the fixed-width tables
// printed by the benchmark harness, the examples and the CLI.
package stats

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"time"
)

// Table is a simple fixed-width text table.
type Table struct {
	title   string
	headers []string
	rows    [][]string
}

// NewTable returns a table with the given title and column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{title: title, headers: headers}
}

// AddRow appends a row. Short rows are padded with empty cells; long rows
// are truncated to the header width.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.headers))
	for i := range row {
		if i < len(cells) {
			row[i] = cells[i]
		}
	}
	t.rows = append(t.rows, row)
}

// AddRowf appends a row of formatted cells, one format-argument pair per
// column via fmt.Sprint.
func (t *Table) AddRowf(cells ...any) {
	row := make([]string, 0, len(cells))
	for _, c := range cells {
		row = append(row, fmt.Sprint(c))
	}
	t.AddRow(row...)
}

// Render writes the table to w.
func (t *Table) Render(w io.Writer) {
	widths := make([]int, len(t.headers))
	for i, h := range t.headers {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) string {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		return strings.TrimRight(strings.Join(parts, "  "), " ")
	}
	if t.title != "" {
		fmt.Fprintln(w, t.title)
	}
	fmt.Fprintln(w, line(t.headers))
	seps := make([]string, len(t.headers))
	for i, wd := range widths {
		seps[i] = strings.Repeat("-", wd)
	}
	fmt.Fprintln(w, line(seps))
	for _, row := range t.rows {
		fmt.Fprintln(w, line(row))
	}
}

// String implements fmt.Stringer.
func (t *Table) String() string {
	var b strings.Builder
	t.Render(&b)
	return b.String()
}

// Summary holds order statistics of a series of integers.
type Summary struct {
	// Count is the number of observations.
	Count int
	// Min and Max are the extremes (0 when Count is 0).
	Min, Max int
	// Mean is the arithmetic mean (0 when Count is 0).
	Mean float64
}

// Summarize computes the summary of xs.
func Summarize(xs []int) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{Count: len(xs), Min: xs[0], Max: xs[0]}
	total := 0
	for _, x := range xs {
		total += x
		if x < s.Min {
			s.Min = x
		}
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean = float64(total) / float64(len(xs))
	return s
}

// String implements fmt.Stringer.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d min=%d max=%d mean=%.2f", s.Count, s.Min, s.Max, s.Mean)
}

// Running accumulates a Summary one observation at a time in constant
// memory: a Summary has no quantile, so count, extremes and sum carry it
// exactly however long the stream runs. The zero value is empty. Not
// safe for concurrent use.
type Running struct {
	count, min, max, sum int
}

// Add folds one observation in.
func (r *Running) Add(x int) {
	if r.count == 0 || x < r.min {
		r.min = x
	}
	if r.count == 0 || x > r.max {
		r.max = x
	}
	r.count++
	r.sum += x
}

// Summary returns what Summarize would over every observation added.
func (r *Running) Summary() Summary {
	if r.count == 0 {
		return Summary{}
	}
	return Summary{Count: r.count, Min: r.min, Max: r.max, Mean: float64(r.sum) / float64(r.count)}
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of sorted by the
// nearest-rank method (index ⌈q·n⌉−1); sorted must be ascending. Zero
// observations yield zero.
func Quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	switch {
	case q <= 0:
		return sorted[0]
	case q >= 1:
		return sorted[len(sorted)-1]
	}
	rank := int(math.Ceil(q*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// LatencySummary holds order statistics of a latency distribution.
type LatencySummary struct {
	// Count is the number of observations.
	Count int
	// Min, Max and Mean describe the distribution's extremes and centre.
	Min, Max, Mean time.Duration
	// P50, P90, P99 and P999 are nearest-rank percentiles (P999 is the
	// 99.9th — the tail a latency SLO actually bounds; below 1000
	// samples it coincides with the maximum by nearest-rank).
	P50, P90, P99, P999 time.Duration
}

// SummarizeDurations computes the latency summary of ds. The input is not
// modified.
func SummarizeDurations(ds []time.Duration) LatencySummary {
	if len(ds) == 0 {
		return LatencySummary{}
	}
	sorted := make([]time.Duration, len(ds))
	copy(sorted, ds)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var total time.Duration
	for _, d := range sorted {
		total += d
	}
	return LatencySummary{
		Count: len(sorted),
		Min:   sorted[0],
		Max:   sorted[len(sorted)-1],
		Mean:  total / time.Duration(len(sorted)),
		P50:   Quantile(sorted, 0.50),
		P90:   Quantile(sorted, 0.90),
		P99:   Quantile(sorted, 0.99),
		P999:  Quantile(sorted, 0.999),
	}
}

// String implements fmt.Stringer.
func (s LatencySummary) String() string {
	return fmt.Sprintf("n=%d min=%s p50=%s p90=%s p99=%s p999=%s max=%s mean=%s",
		s.Count, s.Min, s.P50, s.P90, s.P99, s.P999, s.Max, s.Mean)
}

// Reservoir keeps a bounded uniform sample of a stream (Vitter's
// Algorithm R), so summaries over arbitrarily long runs use constant
// memory while staying unbiased over the whole lifetime. Both the service
// (proposal, decision and round latencies) and the journal (fsync
// latencies) sample through it. Sampling decisions come from a per-reservoir
// splitmix64 generator seeded at construction — never from global PRNG
// state — so the retained sample is a pure function of (seed, stream)
// and two reservoirs never perturb each other's sequences. Not safe for
// concurrent use; callers serialize Add under their own counters' lock.
type Reservoir[T any] struct {
	capacity int
	seen     int
	rng      uint64
	buf      []T
}

// NewReservoirSeeded returns a reservoir holding at most capacity samples
// (capacity < 1 selects 1 << 16) whose sampling stream starts at seed.
// Callers running several reservoirs over correlated streams give them
// distinct seeds to decorrelate their samples.
func NewReservoirSeeded[T any](capacity int, seed uint64) *Reservoir[T] {
	if capacity < 1 {
		capacity = 1 << 16
	}
	return &Reservoir[T]{capacity: capacity, rng: seed}
}

// roll returns a uniform index in [0, n) from the reservoir's splitmix64
// stream. The modulo bias is below n/2^64 — many orders of magnitude
// under the sampling noise of any reservoir this package sizes.
func (r *Reservoir[T]) roll(n int) int {
	r.rng += 0x9e3779b97f4a7c15
	z := r.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int(z % uint64(n))
}

// Add offers one observation to the sample.
func (r *Reservoir[T]) Add(x T) {
	r.seen++
	if len(r.buf) < r.capacity {
		r.buf = append(r.buf, x)
		return
	}
	if i := r.roll(r.seen); i < r.capacity {
		r.buf[i] = x
	}
}

// Seen returns how many observations were offered (retained or not).
func (r *Reservoir[T]) Seen() int { return r.seen }

// Values returns the retained sample. The slice aliases the reservoir's
// buffer; callers must not mutate it.
func (r *Reservoir[T]) Values() []T { return r.buf }
