// Package metrics is the repository's introspection plane: typed
// counters, gauges and fixed-log-bucket histograms behind a registry
// whose snapshots are pure functions of the event schedule.
//
// The package is deliberately inert: it never reads a clock, never
// draws randomness, and its hot paths (Add, Set, Observe) are single
// atomic operations with zero allocations, so instrumenting the live
// stack cannot perturb the schedules the chaos harness replays. Every
// observation an instrument records is a value the *caller* computed —
// on the injected clock.Clock where a duration is involved — which is
// what makes a registry snapshot at quiescence a deterministic
// function of the run: counters and histogram buckets are
// order-insensitive sums, gauges are last-writer values that the
// virtual-time drivers only move at settled instants, and rendering
// sorts families, series and buckets. Two runs of the same seed at
// GOMAXPROCS(1) produce byte-identical Text() output.
//
// No registry means unrendered, not uncounted: a registration call on a
// nil *Registry returns a live instrument that belongs to no family, so
// a component counts each event once, in its instrument, and reads its
// own Stats back from Value/Count/Sum whether or not anything scrapes
// it. Methods on a nil *Counter, *Gauge or *Histogram are still no-ops,
// for sites that are instrumented only on request (transport.Mux's frame
// counters) and pay a nil check per event otherwise.
//
// Histogram buckets are fixed at registration: power-of-two edges
// from Lo to Hi plus an explicit underflow bucket (observations <= 0,
// rendered le="0") and an overflow bucket (rendered le="+Inf").
// Rendering follows the Prometheus text exposition format
// (cumulative _bucket series plus _sum and _count); JSON() renders
// the same snapshot as a machine-readable document for the ops
// endpoint and the chaos harness.
package metrics

import (
	"fmt"
	"math/bits"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one key="value" pair on a series. Series identity is the
// sorted label set; registering the same name and labels twice
// returns the same instrument.
type Label struct {
	Key   string
	Value string
}

type kind uint8

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// Registry owns a set of metric families and renders deterministic
// snapshots of them. The zero value is not usable; construct with
// NewRegistry. A nil *Registry is a valid "nothing rendered" registry:
// every registration call on it returns a fresh live instrument that no
// Text or JSON will ever show.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

type family struct {
	name   string
	help   string
	kind   kind
	lo, hi int64 // histogram bucket range (kindHistogram only)
	series map[string]*series
}

type series struct {
	sig    string // canonical sorted k="v" join, "" for unlabelled
	labels []Label
	ctr    *Counter
	gauge  *Gauge
	hist   *Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// signature renders the canonical series identity and the sorted
// label slice. Label keys must be unique; values are escaped at
// render time, not here.
func signature(labels []Label) (string, []Label) {
	if len(labels) == 0 {
		return "", nil
	}
	sorted := make([]Label, len(labels))
	copy(sorted, labels)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Key < sorted[j].Key })
	var b strings.Builder
	for i, l := range sorted {
		if i > 0 {
			b.WriteByte(',')
		}
		if i > 0 && sorted[i-1].Key == l.Key {
			panic("metrics: duplicate label key " + l.Key)
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	return b.String(), sorted
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// lookup finds or creates the family and series for one registration
// call, enforcing that a name keeps one kind, help string and (for
// histograms) bucket range for the registry's lifetime.
func (r *Registry) lookup(name, help string, k kind, lo, hi int64, labels []Label) *series {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, kind: k, lo: lo, hi: hi, series: make(map[string]*series)}
		r.families[name] = f
	} else if f.kind != k || f.help != help || f.lo != lo || f.hi != hi {
		panic(fmt.Sprintf("metrics: conflicting registration for %s", name))
	}
	sig, sorted := signature(labels)
	s := f.series[sig]
	if s == nil {
		s = &series{sig: sig, labels: sorted}
		switch k {
		case kindCounter:
			s.ctr = &Counter{}
		case kindGauge:
			s.gauge = &Gauge{}
		case kindHistogram:
			s.hist = newHistogram(lo, hi)
		}
		f.series[sig] = s
	}
	return s
}

// Counter registers (or finds) the counter series name{labels...} and
// returns its instrument; on a nil registry, a live unregistered one.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return &Counter{}
	}
	return r.lookup(name, help, kindCounter, 0, 0, labels).ctr
}

// Gauge registers (or finds) the gauge series name{labels...} and
// returns its instrument; on a nil registry, a live unregistered one.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	if r == nil {
		return &Gauge{}
	}
	return r.lookup(name, help, kindGauge, 0, 0, labels).gauge
}

// Histogram registers (or finds) the histogram series name{labels...}
// with power-of-two bucket edges lo, 2lo, 4lo, ..., hi (lo must be a
// positive power of two and hi a power-of-two multiple of it), plus
// an underflow bucket for observations <= 0 and an overflow bucket
// above hi. On a nil registry it returns a live unregistered one.
func (r *Registry) Histogram(name, help string, lo, hi int64, labels ...Label) *Histogram {
	if lo <= 0 || lo&(lo-1) != 0 || hi < lo || hi&(hi-1) != 0 {
		panic(fmt.Sprintf("metrics: histogram %s: bucket range [%d, %d] is not a power-of-two ladder", name, lo, hi))
	}
	if r == nil {
		return newHistogram(lo, hi)
	}
	return r.lookup(name, help, kindHistogram, lo, hi, labels).hist
}

// Counter is a monotone event count. Negative deltas are ignored.
type Counter struct {
	v atomic.Int64
}

// Add adds n (ignored when n <= 0 or c is nil).
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	c.v.Add(n)
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-writer-wins instantaneous value.
type Gauge struct {
	v atomic.Int64
}

// Set stores v (no-op on nil).
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
}

// Add adjusts the gauge by delta (no-op on nil).
func (g *Gauge) Add(delta int64) {
	if g == nil {
		return
	}
	g.v.Add(delta)
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram counts observations into fixed power-of-two buckets.
// counts[0] is the underflow bucket (v <= 0), counts[1..len(edges)]
// pair with edges (bucket i+1 counts edges[i-1] < v <= edges[i],
// with edges[-1] read as 0), and counts[len(edges)+1] is overflow.
type Histogram struct {
	lo    int64
	edges []int64
	count []atomic.Int64
	sum   atomic.Int64
}

func newHistogram(lo, hi int64) *Histogram {
	h := &Histogram{lo: lo}
	for e := lo; ; e <<= 1 {
		h.edges = append(h.edges, e)
		if e >= hi {
			break
		}
	}
	h.count = make([]atomic.Int64, len(h.edges)+2)
	return h
}

// bucket returns the counts index for one observation.
func (h *Histogram) bucket(v int64) int {
	if v <= 0 {
		return 0
	}
	if v <= h.lo {
		return 1
	}
	// Smallest i with lo<<i >= v, i.e. ceil(log2(v/lo)).
	i := bits.Len64(uint64(v-1) / uint64(h.lo))
	if i >= len(h.edges) {
		return len(h.edges) + 1
	}
	return i + 1
}

// Observe records one value (no-op on nil).
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.count[h.bucket(v)].Add(1)
	h.sum.Add(v)
}

// Count returns the total number of observations (0 on nil).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	var n int64
	for i := range h.count {
		n += h.count[i].Load()
	}
	return n
}

// Sum returns the sum of all observations (0 on nil).
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// snapshotFamilies returns the families sorted by name and each
// family's series sorted by signature, under the registry lock.
func (r *Registry) snapshotFamilies() []*family {
	r.mu.Lock()
	defer r.mu.Unlock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	return fams
}

func (f *family) sortedSeries() []*series {
	ss := make([]*series, 0, len(f.series))
	for _, s := range f.series {
		ss = append(ss, s)
	}
	sort.Slice(ss, func(i, j int) bool { return ss[i].sig < ss[j].sig })
	return ss
}

// Text renders the registry in the Prometheus text exposition format:
// families sorted by name, series sorted by label signature,
// histogram buckets cumulative with le edges in ascending order
// (underflow as le="0", overflow as le="+Inf"). The output is a pure
// function of the instruments' current values. On a nil registry it
// returns "".
func (r *Registry) Text() string {
	if r == nil {
		return ""
	}
	var b strings.Builder
	for _, f := range r.snapshotFamilies() {
		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, f.help)
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind)
		for _, s := range f.sortedSeries() {
			switch f.kind {
			case kindCounter:
				writeSample(&b, f.name, s.sig, "", s.ctr.Value())
			case kindGauge:
				writeSample(&b, f.name, s.sig, "", s.gauge.Value())
			case kindHistogram:
				h := s.hist
				cum := int64(0)
				cum += h.count[0].Load()
				writeSample(&b, f.name+"_bucket", s.sig, `le="0"`, cum)
				for i, e := range h.edges {
					cum += h.count[i+1].Load()
					writeSample(&b, f.name+"_bucket", s.sig, `le="`+strconv.FormatInt(e, 10)+`"`, cum)
				}
				cum += h.count[len(h.edges)+1].Load()
				writeSample(&b, f.name+"_bucket", s.sig, `le="+Inf"`, cum)
				writeSample(&b, f.name+"_sum", s.sig, "", h.Sum())
				writeSample(&b, f.name+"_count", s.sig, "", cum)
			}
		}
	}
	return b.String()
}

func writeSample(b *strings.Builder, name, sig, extra string, v int64) {
	b.WriteString(name)
	if sig != "" || extra != "" {
		b.WriteByte('{')
		b.WriteString(sig)
		if sig != "" && extra != "" {
			b.WriteByte(',')
		}
		b.WriteString(extra)
		b.WriteByte('}')
	}
	b.WriteByte(' ')
	b.WriteString(strconv.FormatInt(v, 10))
	b.WriteByte('\n')
}

// JSON renders the same snapshot as a deterministic JSON document:
// an array of families sorted by name, each with its series sorted
// by label signature; histogram buckets carry cumulative counts with
// the same le edges the text format exposes. On a nil registry it
// returns "[]".
func (r *Registry) JSON() string {
	if r == nil {
		return "[]"
	}
	var b strings.Builder
	b.WriteString("[")
	for fi, f := range r.snapshotFamilies() {
		if fi > 0 {
			b.WriteString(",")
		}
		fmt.Fprintf(&b, "\n {%q: %q, %q: %q, %q: %q, %q: [", "name", f.name, "type", f.kind.String(), "help", f.help, "series")
		for si, s := range f.sortedSeries() {
			if si > 0 {
				b.WriteString(",")
			}
			b.WriteString("\n  {")
			fmt.Fprintf(&b, "%q: {", "labels")
			for li, l := range s.labels {
				if li > 0 {
					b.WriteString(", ")
				}
				fmt.Fprintf(&b, "%q: %q", l.Key, l.Value)
			}
			b.WriteString("}")
			switch f.kind {
			case kindCounter:
				fmt.Fprintf(&b, ", %q: %d", "value", s.ctr.Value())
			case kindGauge:
				fmt.Fprintf(&b, ", %q: %d", "value", s.gauge.Value())
			case kindHistogram:
				h := s.hist
				fmt.Fprintf(&b, ", %q: [", "buckets")
				cum := h.count[0].Load()
				fmt.Fprintf(&b, "{%q: %q, %q: %d}", "le", "0", "count", cum)
				for i, e := range h.edges {
					cum += h.count[i+1].Load()
					fmt.Fprintf(&b, ", {%q: %q, %q: %d}", "le", strconv.FormatInt(e, 10), "count", cum)
				}
				cum += h.count[len(h.edges)+1].Load()
				fmt.Fprintf(&b, ", {%q: %q, %q: %d}]", "le", "+Inf", "count", cum)
				fmt.Fprintf(&b, ", %q: %d, %q: %d", "sum", h.Sum(), "count", cum)
			}
			b.WriteString("}")
		}
		b.WriteString("]}")
	}
	b.WriteString("\n]\n")
	return b.String()
}
