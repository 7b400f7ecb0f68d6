// Package workload is the scenario engine for the live service stack:
// it turns one seed into one fully-determined open-loop workload —
// multi-client cohorts with Poisson, Gamma or Weibull inter-arrival
// processes, per-cohort payload-size and key distributions, SLO
// classes, and phase schedules (ramp, burst, idle) — and defines the
// versioned, CRC-framed trace format that records such a run for
// deterministic replay.
//
// # Determinism contract
//
// Every sample the generator draws is a pure function of (seed, cohort,
// client, event index, salt): a seed-hash roll in the style of the
// chaos injector, with no PRNG state anywhere. One seed therefore is
// one workload — the same Spec produces the byte-identical event
// sequence on any GOMAXPROCS, any platform, any clock (the schedule is
// expressed as offsets from run start, so it drives real and virtual
// clocks alike). The test battery pins this with byte-compares of the
// rendered event log.
package workload

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"time"

	"indulgence/internal/model"
)

// MaxClasses bounds the SLO classes a spec may use (classes 0..7;
// higher is more important, lower is shed first). It matches
// wire.MaxClassValue+1.
const MaxClasses = 8

// MaxKeys bounds a cohort's key space.
const MaxKeys = 1 << 16

// MaxErlangShape bounds the integer shape of the Gamma process (the
// generator draws Gamma variates as Erlang sums, one roll per stage).
const MaxErlangShape = 64

// Arrival process names.
const (
	// Poisson is the memoryless arrival process (CV = 1).
	Poisson = "poisson"
	// Gamma is the Erlang arrival process: integer shape k ≥ 1 smooths
	// arrivals (CV = 1/√k); shape 1 degenerates to Poisson.
	Gamma = "gamma"
	// Weibull covers both bursty (shape < 1, CV > 1) and regular
	// (shape > 1, CV < 1) arrivals.
	Weibull = "weibull"
)

// Arrival describes one cohort's inter-arrival process. Rate is the
// per-client arrival rate in events per second at phase multiplier 1;
// Shape selects the process's dispersion where the process has one.
type Arrival struct {
	// Process is Poisson, Gamma or Weibull.
	Process string `json:"process"`
	// Rate is events per second per client (> 0).
	Rate float64 `json:"rate"`
	// Shape is the Gamma (integer, 1..64) or Weibull (0.3..8) shape
	// parameter; ignored for Poisson. Zero selects 1.
	Shape float64 `json:"shape,omitempty"`
}

// Cohort is one homogeneous client population: every client runs the
// same arrival process and draws keys and payload sizes from the same
// distributions, and every proposal carries the cohort's SLO class.
type Cohort struct {
	// Name labels the cohort in reports ("" allowed).
	Name string `json:"name,omitempty"`
	// Clients is the number of concurrent clients (≥ 1).
	Clients int `json:"clients"`
	// Class is the cohort's SLO class (0..MaxClasses-1; higher classes
	// are shed later under overload).
	Class int `json:"class,omitempty"`
	// Arrival is the per-client inter-arrival process.
	Arrival Arrival `json:"arrival"`
	// PayloadMin and PayloadMax bound the uniform synthetic payload
	// size in bytes (both zero for no payload).
	PayloadMin int `json:"payload_min,omitempty"`
	PayloadMax int `json:"payload_max,omitempty"`
	// Keys is the cohort's key-space size (0 selects 1). Keys are
	// generated and recorded, and route nothing: a process runs one
	// consensus group. The field stays so specs keep their format.
	Keys int `json:"keys,omitempty"`
	// KeyTheta skews the key distribution: 0 is uniform, larger values
	// are more skewed (Zipf-like weights 1/(rank+1)^theta).
	KeyTheta float64 `json:"key_theta,omitempty"`
}

// Phase is one segment of the workload's phase schedule. The schedule
// warps every cohort's arrival rate: during a phase, rates are
// multiplied by the phase's Rate — 0 is an idle gap with no arrivals,
// 1 is nominal, larger values are bursts. The workload ends when the
// schedule does.
type Phase struct {
	// Name labels the phase ("ramp", "burst", "idle", ...).
	Name string `json:"name,omitempty"`
	// Duration is the phase length (> 0).
	Duration time.Duration `json:"duration"`
	// Rate is the arrival-rate multiplier (≥ 0; 0 idles the phase).
	Rate float64 `json:"rate"`
}

// Spec is one complete workload description. The zero spec is invalid;
// ParseSpec and Validate gate every entry point.
type Spec struct {
	// Seed determines every sample the generator draws.
	Seed int64 `json:"seed"`
	// Cohorts are the client populations (≥ 1 required).
	Cohorts []Cohort `json:"cohorts"`
	// Phases is the phase schedule (≥ 1 phase required).
	Phases []Phase `json:"phases"`
	// MaxEvents caps the merged event sequence (0 = uncapped). The cap
	// keeps generated chaos workloads inside the runtime's intake
	// bounds so virtual-time submission can never block.
	MaxEvents int `json:"max_events,omitempty"`
}

// JSON returns the spec as compact JSON (the form embedded in trace
// headers and accepted by ParseSpec).
func (s *Spec) JSON() string {
	b, err := json.Marshal(s)
	if err != nil {
		panic("workload: spec marshal: " + err.Error()) // no unmarshalable fields exist
	}
	return string(b)
}

// ParseSpec parses and validates a JSON spec.
func ParseSpec(data []byte) (*Spec, error) {
	var s Spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("workload: parse spec: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Validate checks the spec's bounds.
func (s *Spec) Validate() error {
	if len(s.Cohorts) == 0 {
		return fmt.Errorf("workload: spec needs at least one cohort")
	}
	if len(s.Phases) == 0 {
		return fmt.Errorf("workload: spec needs at least one phase")
	}
	for i, c := range s.Cohorts {
		if c.Clients < 1 {
			return fmt.Errorf("workload: cohort %d: clients %d < 1", i, c.Clients)
		}
		if c.Class < 0 || c.Class >= MaxClasses {
			return fmt.Errorf("workload: cohort %d: class %d outside [0, %d]", i, c.Class, MaxClasses-1)
		}
		if c.PayloadMin < 0 || c.PayloadMax < c.PayloadMin {
			return fmt.Errorf("workload: cohort %d: payload bounds [%d, %d]", i, c.PayloadMin, c.PayloadMax)
		}
		if c.Keys < 0 || c.Keys > MaxKeys {
			return fmt.Errorf("workload: cohort %d: keys %d outside [0, %d]", i, c.Keys, MaxKeys)
		}
		if c.KeyTheta < 0 || c.KeyTheta > 8 {
			return fmt.Errorf("workload: cohort %d: key theta %g outside [0, 8]", i, c.KeyTheta)
		}
		a := c.Arrival
		if !(a.Rate > 0) || a.Rate > 1e9 {
			return fmt.Errorf("workload: cohort %d: rate %g outside (0, 1e9]", i, a.Rate)
		}
		switch a.Process {
		case Poisson:
		case Gamma:
			k := a.Shape
			if k == 0 {
				k = 1
			}
			if k != math.Trunc(k) || k < 1 || k > MaxErlangShape {
				return fmt.Errorf("workload: cohort %d: gamma shape %g not an integer in [1, %d]", i, a.Shape, MaxErlangShape)
			}
		case Weibull:
			k := a.Shape
			if k == 0 {
				k = 1
			}
			if k < 0.3 || k > 8 {
				return fmt.Errorf("workload: cohort %d: weibull shape %g outside [0.3, 8]", i, a.Shape)
			}
		default:
			return fmt.Errorf("workload: cohort %d: unknown arrival process %q", i, a.Process)
		}
	}
	for i, p := range s.Phases {
		if p.Duration <= 0 {
			return fmt.Errorf("workload: phase %d: duration %s", i, p.Duration)
		}
		if p.Rate < 0 || p.Rate > 1e6 {
			return fmt.Errorf("workload: phase %d: rate %g outside [0, 1e6]", i, p.Rate)
		}
	}
	if s.MaxEvents < 0 {
		return fmt.Errorf("workload: max events %d < 0", s.MaxEvents)
	}
	return nil
}

// Classes returns the number of SLO classes the spec uses: the highest
// cohort class plus one.
func (s *Spec) Classes() int {
	max := 0
	for _, c := range s.Cohorts {
		if c.Class > max {
			max = c.Class
		}
	}
	return max + 1
}

// Duration returns the schedule's total length.
func (s *Spec) Duration() time.Duration {
	var d time.Duration
	for _, p := range s.Phases {
		d += p.Duration
	}
	return d
}

// Roll salts: each constant selects an independent stream of rolls per
// (seed, cohort, client, event).
const (
	saltArrival byte = 1 + iota
	saltErlang
	saltWeibull
	saltKey
	saltPayload
)

// roll derives one uniform sample in [0, 1) from the identifying
// coordinates alone — FNV-64a over (seed, cohort, client, event, extra,
// salt), mapped to the unit interval with 53 bits of precision, the
// chaos injector's hash-roll idiom. The FNV sum is passed through a
// 64-bit finalizer first: bare FNV avalanches single-byte differences
// poorly enough that adjacent Erlang stage rolls come out measurably
// anticorrelated, which the arrival-moment property tests catch. No
// state: the same coordinates always yield the same sample, on any
// goroutine, in any order.
func roll(seed int64, cohort, client, event int, extra uint64, salt byte) float64 {
	var buf [41]byte
	binary.LittleEndian.PutUint64(buf[0:], uint64(seed))
	binary.LittleEndian.PutUint64(buf[8:], uint64(cohort))
	binary.LittleEndian.PutUint64(buf[16:], uint64(client))
	binary.LittleEndian.PutUint64(buf[24:], uint64(event))
	binary.LittleEndian.PutUint64(buf[32:], extra)
	buf[40] = salt
	h := fnv.New64a()
	h.Write(buf[:])
	x := h.Sum64()
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return float64(x>>11) / float64(1<<53)
}

// GenSpec derives a small mixed-class burst workload from a seed: three
// cohorts (bulk Poisson class 0, steady Gamma class 1, interactive
// Weibull class 2) over a ramp/burst/idle/steady schedule, capped at
// maxEvents. It is what the chaos harness and the CLI use when handed
// a bare seed instead of a spec file.
func GenSpec(seed int64, maxEvents int) *Spec {
	pick := func(salt byte, lo, hi float64) float64 {
		return lo + (hi-lo)*roll(seed, 0, 0, 0, 0, salt|0x80)
	}
	clients := 1 + int(pick(1, 1, 4))
	rate := pick(2, 40, 120)
	return &Spec{
		Seed: seed,
		Cohorts: []Cohort{
			{Name: "bulk", Clients: clients + 1, Class: 0,
				Arrival:    Arrival{Process: Poisson, Rate: rate * 2},
				PayloadMin: 64, PayloadMax: 1024, Keys: 256, KeyTheta: pick(3, 0, 1.2)},
			{Name: "steady", Clients: clients, Class: 1,
				Arrival:    Arrival{Process: Gamma, Rate: rate, Shape: 4},
				PayloadMin: 16, PayloadMax: 128, Keys: 64},
			{Name: "interactive", Clients: clients, Class: 2,
				Arrival:    Arrival{Process: Weibull, Rate: rate / 2, Shape: pick(4, 0.5, 0.9)},
				PayloadMin: 8, PayloadMax: 64, Keys: 16, KeyTheta: 0.8},
		},
		Phases: []Phase{
			{Name: "ramp", Duration: 40 * time.Millisecond, Rate: 0.5},
			{Name: "burst", Duration: 60 * time.Millisecond, Rate: pick(5, 1.5, 3)},
			{Name: "idle", Duration: 20 * time.Millisecond, Rate: 0},
			{Name: "steady", Duration: 80 * time.Millisecond, Rate: 1},
		},
		MaxEvents: maxEvents,
	}
}

// Value derives the proposal value of the seq-th merged event: unique
// per event, never zero, and a pure function of (seed, seq) so record
// and replay agree without coordination.
func Value(seed int64, seq int) model.Value {
	return model.Value(int64(seq+1)*1_000_003 + seed)
}
