package metrics

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
)

// TestHistogramBucketBoundaries pins the exact edge semantics: each
// bucket le=e counts observations v with prev(e) < v <= e, the
// underflow bucket (le="0") counts v <= 0, and the overflow bucket
// counts v > hi.
func TestHistogramBucketBoundaries(t *testing.T) {
	cases := []struct {
		v      int64
		bucket int // counts index: 0 underflow, 1..n edges, n+1 overflow
	}{
		{-5, 0},
		{0, 0},
		{1, 1},
		{7, 1},
		{8, 1},  // exactly lo
		{9, 2},  // first value past lo
		{16, 2}, // exactly 2lo
		{17, 3},
		{31, 3},
		{32, 3}, // exactly 4lo
		{33, 4},
		{64, 4}, // exactly hi
		{65, 5}, // overflow
		{1 << 40, 5},
	}
	h := newHistogram(8, 64) // edges 8, 16, 32, 64
	if got := len(h.edges); got != 4 {
		t.Fatalf("edges = %v, want 4 edges", h.edges)
	}
	for _, c := range cases {
		if got := h.bucket(c.v); got != c.bucket {
			t.Errorf("bucket(%d) = %d, want %d", c.v, got, c.bucket)
		}
	}
	// Same edges through the registry path, checking the rendered
	// cumulative counts.
	r := NewRegistry()
	hist := r.Histogram("boundary_ns", "boundary test", 8, 64)
	for _, c := range cases {
		hist.Observe(c.v)
	}
	text := r.Text()
	for _, want := range []string{
		`boundary_ns_bucket{le="0"} 2`,
		`boundary_ns_bucket{le="8"} 5`,
		`boundary_ns_bucket{le="16"} 7`,
		`boundary_ns_bucket{le="32"} 10`,
		`boundary_ns_bucket{le="64"} 12`,
		`boundary_ns_bucket{le="+Inf"} 14`,
		`boundary_ns_count 14`,
	} {
		if !strings.Contains(text, want+"\n") {
			t.Errorf("Text() missing %q:\n%s", want, text)
		}
	}
	if hist.Count() != 14 {
		t.Errorf("Count() = %d, want 14", hist.Count())
	}
}

// TestHistogramSingleBucket covers the degenerate lo == hi ladder.
func TestHistogramSingleBucket(t *testing.T) {
	h := newHistogram(4, 4)
	if len(h.edges) != 1 {
		t.Fatalf("edges = %v, want [4]", h.edges)
	}
	for v, want := range map[int64]int{0: 0, 1: 1, 4: 1, 5: 2} {
		if got := h.bucket(v); got != want {
			t.Errorf("bucket(%d) = %d, want %d", v, got, want)
		}
	}
}

func TestHistogramRejectsBadLadder(t *testing.T) {
	for _, c := range [][2]int64{{0, 8}, {-2, 8}, {3, 24}, {8, 4}, {8, 24}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Histogram(lo=%d, hi=%d) did not panic", c[0], c[1])
				}
			}()
			NewRegistry().Histogram("bad", "", c[0], c[1])
		}()
	}
}

// TestConcurrentHammer drives every instrument kind from many
// goroutines; under -race this is the data-race proof, and the final
// totals prove no observation is lost.
func TestConcurrentHammer(t *testing.T) {
	r := NewRegistry()
	const workers, each = 8, 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Registration races with use on purpose: lookups are
			// idempotent and all workers must land on one series.
			c := r.Counter("hammer_total", "events")
			g := r.Gauge("hammer_gauge", "level")
			h := r.Histogram("hammer_ns", "latency", 1024, 1<<20)
			for i := 0; i < each; i++ {
				c.Inc()
				g.Set(int64(i))
				h.Observe(int64(i * 997))
			}
		}(w)
	}
	wg.Wait()
	if got := r.Counter("hammer_total", "events").Value(); got != workers*each {
		t.Errorf("counter = %d, want %d", got, workers*each)
	}
	if got := r.Histogram("hammer_ns", "latency", 1024, 1<<20).Count(); got != workers*each {
		t.Errorf("histogram count = %d, want %d", got, workers*each)
	}
}

// TestRenderDeterminism: registration order must not leak into the
// snapshot — families, series and buckets render sorted.
func TestRenderDeterminism(t *testing.T) {
	build := func(flip bool) *Registry {
		r := NewRegistry()
		add := func(group string) {
			r.Counter("zz_total", "z", Label{"group", group}).Add(3)
			r.Gauge("aa_gauge", "a", Label{"group", group}, Label{"class", "1"}).Set(7)
			r.Histogram("mm_ns", "m", 2, 8, Label{"group", group}).Observe(5)
		}
		if flip {
			add("1")
			add("0")
		} else {
			add("0")
			add("1")
		}
		return r
	}
	a, b := build(false), build(true)
	if a.Text() != b.Text() {
		t.Errorf("Text() depends on registration order:\n%s\n---\n%s", a.Text(), b.Text())
	}
	if a.JSON() != b.JSON() {
		t.Errorf("JSON() depends on registration order")
	}
	// Label keys within a series render sorted too.
	if !strings.Contains(a.Text(), `aa_gauge{class="1",group="0"} 7`) {
		t.Errorf("labels not canonically sorted:\n%s", a.Text())
	}
	if !json.Valid([]byte(a.JSON())) {
		t.Errorf("JSON() is not valid JSON:\n%s", a.JSON())
	}
}

// TestNilSafety: a nil registry means unrendered, not uncounted — its
// registration calls hand out live instruments (a fresh one per call,
// since nothing holds a series to find again) that no render shows —
// while nil instruments stay no-ops for sites instrumented on request.
func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x_total", "x")
	g := r.Gauge("x_gauge", "x")
	h := r.Histogram("x_ns", "x", 1, 8)
	c.Inc()
	c.Add(5)
	g.Set(9)
	g.Add(1)
	h.Observe(3)
	h.Observe(100)
	if c.Value() != 6 || g.Value() != 10 || h.Count() != 2 || h.Sum() != 103 {
		t.Errorf("nil-registry instruments did not count: counter %d gauge %d histogram %d/%d",
			c.Value(), g.Value(), h.Count(), h.Sum())
	}
	if again := r.Counter("x_total", "x"); again == c || again.Value() != 0 {
		t.Errorf("nil registry handed the same counter out twice")
	}
	if r.Text() != "" || r.JSON() != "[]" {
		t.Errorf("nil registry rendered content")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Errorf("nil registry accepted a histogram range that is not a power-of-two ladder")
			}
		}()
		r.Histogram("bad_ns", "x", 3, 8)
	}()

	var (
		nc *Counter
		ng *Gauge
		nh *Histogram
	)
	nc.Inc()
	nc.Add(5)
	ng.Set(9)
	ng.Add(1)
	nh.Observe(3)
	if nc.Value() != 0 || ng.Value() != 0 || nh.Count() != 0 || nh.Sum() != 0 {
		t.Errorf("nil instruments accumulated state")
	}
}

func TestConflictingRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("dual", "d")
	defer func() {
		if recover() == nil {
			t.Errorf("re-registering a counter as a gauge did not panic")
		}
	}()
	r.Gauge("dual", "d")
}

// TestOpsServer scrapes a live endpoint end to end: Prometheus text
// at /metrics, JSON at /metrics.json, pprof index under /debug/pprof/.
func TestOpsServer(t *testing.T) {
	r := NewRegistry()
	r.Counter("ops_total", "ops", Label{"class", "0"}).Add(11)
	s, err := ServeOps("127.0.0.1:0", r)
	if err != nil {
		t.Fatalf("ServeOps: %v", err)
	}
	defer s.Close()
	get := func(path string) string {
		resp, err := http.Get("http://" + s.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: read: %v", path, err)
		}
		return string(body)
	}
	if got := get("/metrics"); !strings.Contains(got, `ops_total{class="0"} 11`) {
		t.Errorf("/metrics missing series:\n%s", got)
	}
	if got := get("/metrics.json"); !json.Valid([]byte(got)) || !strings.Contains(got, `"ops_total"`) {
		t.Errorf("/metrics.json invalid or missing family:\n%s", got)
	}
	if got := get("/debug/pprof/"); !strings.Contains(got, "goroutine") {
		t.Errorf("/debug/pprof/ index missing profiles:\n%s", got)
	}
}
