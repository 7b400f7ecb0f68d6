package workload

// Event generation: per-(cohort, client) arrival streams sampled from
// seed-hash rolls, warped through the phase schedule, and merged into
// one global arrival order. Everything here is a pure function of the
// spec — no clocks, no PRNG state, no goroutines — so the generated
// sequence is byte-identical across runs, platforms and GOMAXPROCS.

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"indulgence/internal/model"
	"indulgence/internal/wire"
)

// Event is one generated proposal arrival.
type Event struct {
	// Seq is the event's position in the merged arrival order.
	Seq int
	// At is the arrival instant as an offset from run start.
	At time.Duration
	// Cohort and Client identify the generating stream.
	Cohort int
	Client int
	// Class is the proposal's SLO class (the cohort's class).
	Class int
	// Key is the proposal's routing key; it is recorded in traces and
	// routes nothing (a process runs one consensus group).
	Key uint64
	// Value is the proposed value (unique per event).
	Value model.Value
	// Payload is the synthetic payload size in bytes.
	Payload int
}

// Record converts the event to its trace-file record.
func (e Event) Record() wire.TraceEventRecord {
	return wire.TraceEventRecord{
		Seq:     uint64(e.Seq),
		AtNanos: int64(e.At),
		Cohort:  e.Cohort,
		Client:  e.Client,
		Class:   e.Class,
		Key:     e.Key,
		Value:   e.Value,
		Payload: e.Payload,
	}
}

// interArrival samples the event-th raw inter-arrival gap (in seconds,
// at phase multiplier 1) of one client's stream.
func interArrival(s *Spec, cohort int, c Cohort, client, event int) float64 {
	a := c.Arrival
	switch a.Process {
	case Gamma:
		// Erlang: the sum of k unit-exponential stages, one roll each.
		k := int(a.Shape)
		if k < 1 {
			k = 1
		}
		sum := 0.0
		for j := 0; j < k; j++ {
			u := roll(s.Seed, cohort, client, event, uint64(j), saltErlang)
			sum += -math.Log1p(-u)
		}
		// Mean k·scale must equal 1/rate, so scale = 1/(rate·k).
		return sum / (a.Rate * float64(k))
	case Weibull:
		k := a.Shape
		if k == 0 {
			k = 1
		}
		u := roll(s.Seed, cohort, client, event, 0, saltWeibull)
		// Mean scale·Γ(1+1/k) must equal 1/rate.
		scale := 1 / (a.Rate * math.Gamma(1+1/k))
		return scale * math.Pow(-math.Log1p(-u), 1/k)
	default: // Poisson
		u := roll(s.Seed, cohort, client, event, 0, saltArrival)
		return -math.Log1p(-u) / a.Rate
	}
}

// advance consumes dt seconds of raw (multiplier-1) arrival time
// starting from wall offset t, warping through the phase schedule: a
// phase with multiplier m consumes raw time m times faster than wall
// time, and an idle phase (m = 0) is skipped outright. It returns the
// new wall offset and false when the schedule ends first.
func advance(phases []Phase, t time.Duration, dt float64) (time.Duration, bool) {
	var start time.Duration
	for _, p := range phases {
		end := start + p.Duration
		if t >= end {
			start = end
			continue
		}
		if p.Rate == 0 {
			t = end
			start = end
			continue
		}
		// Raw seconds available before this phase ends.
		avail := (end - t).Seconds() * p.Rate
		if dt <= avail {
			return t + time.Duration(dt/p.Rate*float64(time.Second)), true
		}
		dt -= avail
		t = end
		start = end
	}
	return t, false
}

// key samples the stream's event-th key from the cohort's key
// distribution: uniform when KeyTheta is 0, Zipf-like (weights
// 1/(rank+1)^theta over a precomputed CDF) otherwise.
func key(s *Spec, cohort int, c Cohort, client, event int, cdf []float64) uint64 {
	n := c.Keys
	if n <= 1 {
		return 0
	}
	u := roll(s.Seed, cohort, client, event, 0, saltKey)
	if len(cdf) == 0 {
		return uint64(u * float64(n))
	}
	target := u * cdf[len(cdf)-1]
	return uint64(sort.SearchFloat64s(cdf, target))
}

// keyCDF precomputes the cohort's Zipf cumulative weights (nil for a
// uniform cohort).
func keyCDF(c Cohort) []float64 {
	if c.KeyTheta == 0 || c.Keys <= 1 {
		return nil
	}
	cdf := make([]float64, c.Keys)
	sum := 0.0
	for r := 0; r < c.Keys; r++ {
		sum += 1 / math.Pow(float64(r+1), c.KeyTheta)
		cdf[r] = sum
	}
	return cdf
}

// payloadSize samples the stream's event-th payload size.
func payloadSize(s *Spec, cohort int, c Cohort, client, event int) int {
	if c.PayloadMax <= c.PayloadMin {
		return c.PayloadMin
	}
	u := roll(s.Seed, cohort, client, event, 0, saltPayload)
	return c.PayloadMin + int(u*float64(c.PayloadMax-c.PayloadMin+1))
}

// Events generates the spec's complete merged arrival sequence. The
// spec must have been validated.
func (s *Spec) Events() []Event {
	var all []Event
	for ci, c := range s.Cohorts {
		cdf := keyCDF(c)
		for cl := 0; cl < c.Clients; cl++ {
			var t time.Duration
			for ev := 0; ; ev++ {
				dt := interArrival(s, ci, c, cl, ev)
				next, ok := advance(s.Phases, t, dt)
				if !ok {
					break
				}
				t = next
				all = append(all, Event{
					At:      t,
					Cohort:  ci,
					Client:  cl,
					Class:   c.Class,
					Key:     key(s, ci, c, cl, ev, cdf),
					Payload: payloadSize(s, ci, c, cl, ev),
				})
			}
		}
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.At != b.At {
			return a.At < b.At
		}
		if a.Cohort != b.Cohort {
			return a.Cohort < b.Cohort
		}
		return a.Client < b.Client
	})
	if s.MaxEvents > 0 && len(all) > s.MaxEvents {
		all = all[:s.MaxEvents]
	}
	for i := range all {
		all[i].Seq = i
		all[i].Value = Value(s.Seed, i)
	}
	return all
}

// Waves is the fixed-wave load as an event list: total class-0
// proposals released per at a time (per < 1 releases all at once), wave
// w at offset w×gap, event i carrying value(i) and routed by key i. It
// is Spec.Events' sibling generator — the chaos harness's wave
// scenarios and bench-service's -burst shape are both this list.
func Waves(total, per int, gap time.Duration, value func(i int) model.Value) []Event {
	if per < 1 {
		per = max(total, 1)
	}
	events := make([]Event, total)
	for i := range events {
		events[i] = Event{Seq: i, At: time.Duration(i/per) * gap, Key: uint64(i), Value: value(i)}
	}
	return events
}

// EventLog renders events one per line in a canonical text form — the
// byte-compare surface of the determinism tests.
func EventLog(events []Event) string {
	var b strings.Builder
	for _, e := range events {
		fmt.Fprintf(&b, "seq=%d at=%d cohort=%d client=%d class=%d key=%d payload=%d value=%d\n",
			e.Seq, int64(e.At), e.Cohort, e.Client, e.Class, e.Key, e.Payload, e.Value)
	}
	return b.String()
}
