package workload

import (
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"indulgence/internal/model"
)

// sampleStats draws n inter-arrival gaps from one stream and returns
// their sample mean and coefficient of variation.
func sampleStats(s *Spec, cohort int, c Cohort, n int) (mean, cv float64) {
	sum, sumSq := 0.0, 0.0
	for i := 0; i < n; i++ {
		x := interArrival(s, cohort, c, 0, i)
		sum += x
		sumSq += x * x
	}
	mean = sum / float64(n)
	variance := sumSq/float64(n) - mean*mean
	if variance < 0 {
		variance = 0
	}
	return mean, math.Sqrt(variance) / mean
}

// TestArrivalProcessMoments pins the generator's distributions: across
// 100 seeds, every process's sample mean must sit near 1/rate and its
// sample CV near the distribution's analytic value — Poisson CV 1,
// Erlang-k CV 1/√k, Weibull-k CV from the gamma-function formula. The
// cross-seed averages must be tighter still, so a systematically biased
// sampler cannot hide inside the per-seed tolerance.
func TestArrivalProcessMoments(t *testing.T) {
	const seeds = 100
	const samples = 2000
	cases := []struct {
		name    string
		arrival Arrival
		wantCV  float64
	}{
		{"poisson", Arrival{Process: Poisson, Rate: 50}, 1},
		{"erlang-4", Arrival{Process: Gamma, Rate: 50, Shape: 4}, 0.5},
		{"erlang-16", Arrival{Process: Gamma, Rate: 200, Shape: 16}, 0.25},
		{"weibull-regular", Arrival{Process: Weibull, Rate: 50, Shape: 1.5},
			math.Sqrt(math.Gamma(1+2/1.5)/math.Pow(math.Gamma(1+1/1.5), 2) - 1)},
		{"weibull-bursty", Arrival{Process: Weibull, Rate: 50, Shape: 0.7},
			math.Sqrt(math.Gamma(1+2/0.7)/math.Pow(math.Gamma(1+1/0.7), 2) - 1)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wantMean := 1 / tc.arrival.Rate
			var meanAcc, cvAcc float64
			for seed := int64(1); seed <= seeds; seed++ {
				s := &Spec{Seed: seed}
				c := Cohort{Clients: 1, Arrival: tc.arrival}
				mean, cv := sampleStats(s, 0, c, samples)
				if math.Abs(mean-wantMean) > 0.15*wantMean {
					t.Fatalf("seed %d: mean %g, want %g ±15%%", seed, mean, wantMean)
				}
				if math.Abs(cv-tc.wantCV) > 0.25*tc.wantCV {
					t.Fatalf("seed %d: cv %g, want %g ±25%%", seed, cv, tc.wantCV)
				}
				meanAcc += mean
				cvAcc += cv
			}
			meanAcc /= seeds
			cvAcc /= seeds
			if math.Abs(meanAcc-wantMean) > 0.03*wantMean {
				t.Fatalf("cross-seed mean %g, want %g ±3%%", meanAcc, wantMean)
			}
			if math.Abs(cvAcc-tc.wantCV) > 0.05*tc.wantCV {
				t.Fatalf("cross-seed cv %g, want %g ±5%%", cvAcc, tc.wantCV)
			}
		})
	}
}

// TestEventsDeterministic pins the determinism contract: the same seed
// yields the byte-identical event log no matter how many times, from
// how many goroutines, or at which GOMAXPROCS it is generated — there
// is no PRNG state to perturb.
func TestEventsDeterministic(t *testing.T) {
	spec := GenSpec(7, 0)
	want := EventLog(spec.Events())
	if want == "" {
		t.Fatal("generated no events")
	}
	for _, procs := range []int{1, 2, runtime.NumCPU()} {
		prev := runtime.GOMAXPROCS(procs)
		var wg sync.WaitGroup
		logs := make([]string, 8)
		for i := range logs {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				logs[i] = EventLog(spec.Events())
			}(i)
		}
		wg.Wait()
		runtime.GOMAXPROCS(prev)
		for i, got := range logs {
			if got != want {
				t.Fatalf("GOMAXPROCS=%d goroutine %d: event log diverged", procs, i)
			}
		}
	}
}

// TestEventsShape sanity-checks the merged sequence: seqs are dense,
// arrivals are time-ordered, idle phases are arrival-free, classes and
// keys respect their cohorts, and values are unique.
func TestEventsShape(t *testing.T) {
	spec := GenSpec(3, 0)
	events := spec.Events()
	if len(events) == 0 {
		t.Fatal("no events")
	}
	// GenSpec's schedule: ramp 40ms, burst 60ms, idle 20ms, steady 80ms.
	idleStart, idleEnd := 100*time.Millisecond, 120*time.Millisecond
	values := make(map[int64]bool)
	for i, e := range events {
		if e.Seq != i {
			t.Fatalf("event %d has seq %d", i, e.Seq)
		}
		if i > 0 && e.At < events[i-1].At {
			t.Fatalf("event %d arrives before its predecessor", i)
		}
		if e.At > idleStart && e.At < idleEnd {
			t.Fatalf("event %d arrives at %s inside the idle phase", i, e.At)
		}
		c := spec.Cohorts[e.Cohort]
		if e.Class != c.Class {
			t.Fatalf("event %d class %d, cohort class %d", i, e.Class, c.Class)
		}
		if e.Key >= uint64(c.Keys) {
			t.Fatalf("event %d key %d outside cohort space %d", i, e.Key, c.Keys)
		}
		if e.Payload < c.PayloadMin || e.Payload > c.PayloadMax {
			t.Fatalf("event %d payload %d outside [%d, %d]", i, e.Payload, c.PayloadMin, c.PayloadMax)
		}
		if values[int64(e.Value)] {
			t.Fatalf("event %d reuses value %d", i, e.Value)
		}
		values[int64(e.Value)] = true
	}
}

// TestMaxEventsCap pins that the cap truncates the merged order, not
// per-stream, so capped workloads keep the earliest arrivals.
func TestMaxEventsCap(t *testing.T) {
	full := GenSpec(11, 0)
	capped := *full
	capped.MaxEvents = 10
	fullEvents := full.Events()
	if len(fullEvents) <= 10 {
		t.Skipf("only %d events generated", len(fullEvents))
	}
	got := capped.Events()
	if len(got) != 10 {
		t.Fatalf("capped to %d events, want 10", len(got))
	}
	if EventLog(got) != EventLog(fullEvents[:10]) {
		t.Fatal("capped sequence is not the prefix of the full sequence")
	}
}

// TestWaves pins the wave generator against the two loops it replaced:
// the chaos harness's per = ceil(Proposals/Waves) split and
// bench-service's fixed -burst size, plus the all-at-once default — and
// the list contract every driver leans on (At-sorted, Seq dense, class
// 0, key = seq).
func TestWaves(t *testing.T) {
	const gap = 10 * time.Millisecond
	cases := []struct {
		name       string
		total, per int
		wantSizes  []int // events per wave, wave w at w×gap
	}{
		{name: "chaos: 7 proposals in 3 waves", total: 7, per: (7 + 3 - 1) / 3, wantSizes: []int{3, 3, 1}},
		{name: "bench-service: 10 proposals, -burst 4", total: 10, per: 4, wantSizes: []int{4, 4, 2}},
		{name: "steady: everything at once", total: 5, per: 0, wantSizes: []int{5}},
		{name: "burst wider than the load", total: 3, per: 8, wantSizes: []int{3}},
		{name: "empty", total: 0, per: 0, wantSizes: nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			events := Waves(tc.total, tc.per, gap, func(i int) model.Value { return model.Value(100 + i) })
			if len(events) != tc.total {
				t.Fatalf("%d events, want %d", len(events), tc.total)
			}
			sizes := make(map[time.Duration]int)
			for i, e := range events {
				if e.Seq != i || e.Key != uint64(i) || e.Class != 0 || e.Value != model.Value(100+i) {
					t.Fatalf("event %d = %+v", i, e)
				}
				if i > 0 && e.At < events[i-1].At {
					t.Fatalf("event %d arrives before its predecessor", i)
				}
				sizes[e.At]++
			}
			if len(sizes) != len(tc.wantSizes) {
				t.Fatalf("%d distinct instants, want %d: %v", len(sizes), len(tc.wantSizes), sizes)
			}
			for w, want := range tc.wantSizes {
				if got := sizes[time.Duration(w)*gap]; got != want {
					t.Errorf("wave %d at %v holds %d events, want %d", w, time.Duration(w)*gap, got, want)
				}
			}
		})
	}
}

// TestGenSpecValid pins that every derived spec validates and stays
// mixed-class across 100 seeds.
func TestGenSpecValid(t *testing.T) {
	for seed := int64(0); seed < 100; seed++ {
		spec := GenSpec(seed, 256)
		if err := spec.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if spec.Classes() != 3 {
			t.Fatalf("seed %d: %d classes, want 3", seed, spec.Classes())
		}
		if n := len(spec.Events()); n == 0 || n > 256 {
			t.Fatalf("seed %d: %d events", seed, n)
		}
	}
}

// TestSpecJSONRoundTrip pins the spec's JSON embedding: parse(JSON(s))
// must reproduce the spec and its workload exactly.
func TestSpecJSONRoundTrip(t *testing.T) {
	spec := GenSpec(23, 128)
	parsed, err := ParseSpec([]byte(spec.JSON()))
	if err != nil {
		t.Fatal(err)
	}
	if EventLog(parsed.Events()) != EventLog(spec.Events()) {
		t.Fatal("JSON round-trip changed the workload")
	}
}

// TestValidateRejects spot-checks the validator's bounds.
func TestValidateRejects(t *testing.T) {
	base := func() *Spec { return GenSpec(1, 0) }
	cases := []struct {
		name   string
		mutate func(*Spec)
	}{
		{"no cohorts", func(s *Spec) { s.Cohorts = nil }},
		{"no phases", func(s *Spec) { s.Phases = nil }},
		{"zero clients", func(s *Spec) { s.Cohorts[0].Clients = 0 }},
		{"class too high", func(s *Spec) { s.Cohorts[0].Class = MaxClasses }},
		{"zero rate", func(s *Spec) { s.Cohorts[0].Arrival.Rate = 0 }},
		{"unknown process", func(s *Spec) { s.Cohorts[0].Arrival.Process = "pareto" }},
		{"fractional erlang shape", func(s *Spec) { s.Cohorts[1].Arrival.Shape = 2.5 }},
		{"negative phase duration", func(s *Spec) { s.Phases[0].Duration = -1 }},
		{"payload bounds inverted", func(s *Spec) { s.Cohorts[0].PayloadMin = 10; s.Cohorts[0].PayloadMax = 5 }},
		{"key space too large", func(s *Spec) { s.Cohorts[0].Keys = MaxKeys + 1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := base()
			tc.mutate(s)
			if err := s.Validate(); err == nil {
				t.Fatal("validator accepted a broken spec")
			}
		})
	}
}
