// Package chaos is the deterministic fault-injection harness for the
// live service stack. A Scenario is a pure-data description of one
// adversarial execution — link faults, partitions, gray links, crashes
// and the proposal load — and Run executes it on a virtual clock
// (internal/chaos/clock): the whole stack, from batching lingers down
// to suspicion timeouts and delayed frame deliveries, advances on
// simulated time, so a thousand multi-second executions finish in
// wall-clock seconds and a failing seed replays from its printed spec.
//
// The fault model follows the paper's ES network: channels are
// reliable but may delay messages arbitrarily. "Dropping" a frame
// therefore means delaying it to the scenario horizon (late, not
// lost) — true loss would leave the round protocol, which never
// retransmits, wedged below its quorum with no adversary to blame.
// Partitions delay frames sent across the cut until the heal instant,
// gray links are heavy one-directional delay, duplicates and jitter
// are delivered as-is (receive sets are idempotent and order-blind).
// Under this adversary the paper's theorems say safety violations are
// impossible; every run is audited with check.Instance and
// check.Replay, so a violation is a defect detector firing, never an
// accepted outcome.
package chaos

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	//indulgence:prng locally seeded; published seed->scenario mapping pins math/rand's fixed sequence
	"math/rand"
	"time"

	"indulgence/internal/adapt"
	"indulgence/internal/model"
	"indulgence/internal/workload"
)

// LinkFault perturbs the ordered process pair From→To.
type LinkFault struct {
	// From and To name the directed link.
	From, To model.ProcessID
	// Delay is the base one-way delivery delay added to every frame.
	Delay time.Duration
	// Jitter adds a per-frame delay drawn uniformly from [0, Jitter),
	// hashed from the frame bytes — enough to reorder back-to-back
	// sends.
	Jitter time.Duration
	// DropP is the probability a frame is "dropped": delayed to the
	// scenario horizon instead of lost (see the package comment).
	DropP float64
	// DupP is the probability a frame is delivered twice, the copy
	// landing one jitter interval after the original.
	DupP float64
}

// Partition disconnects two process groups during a time window.
type Partition struct {
	// A and B are the two sides of the cut. Processes in neither group
	// are unaffected.
	A, B []model.ProcessID
	// From and Until bound the window, as offsets from scenario start.
	// Frames sent across the cut inside the window are delayed until
	// Until (the heal instant).
	From, Until time.Duration
	// OneWay makes the cut asymmetric: only A→B frames are held; B→A
	// flows normally.
	OneWay bool
}

// Crash schedules a crash-stop failure.
type Crash struct {
	// P is the crashed process.
	P model.ProcessID
	// At is the crash instant, as an offset from scenario start. Every
	// instance running at that instant loses P; instances started while
	// P is down start with P crashed.
	At time.Duration
	// Restart, when nonzero, is the instant (offset from scenario
	// start, after At) from which NEW instances include P again.
	// Instances that already lost P keep it crashed — a crash is
	// per-instance crash-stop, exactly like the runtime's model.
	Restart time.Duration
}

// Scenario is a complete, JSON-serializable chaos experiment: system
// shape, algorithm, fault schedule and proposal load. The spec is pure
// data — replaying the printed JSON of a failing run reproduces it
// exactly (run with GOMAXPROCS(1), as the chaos CLI and tests do).
type Scenario struct {
	// Seed feeds every per-frame fault decision (hashed, so decisions
	// are order-independent) and names the scenario.
	Seed int64
	// N and T describe the system.
	N, T int
	// Algorithm names the consensus algorithm: atplus2, atplus2ff,
	// diamonds, or afplus2. Generated scenarios use only the indulgent
	// three: A_f+2 is safe only under accurate detection, which an
	// adversarial schedule deliberately violates.
	Algorithm string
	// Adaptive attaches the feedback control plane (batch/linger
	// tuning; never algorithm selection, which would smuggle A_f+2
	// under the adversary).
	Adaptive bool
	// BaseTimeout is the instances' initial suspicion timeout.
	BaseTimeout time.Duration
	// MaxBatch, Linger and MaxInflight configure the service batcher.
	MaxBatch    int
	Linger      time.Duration
	MaxInflight int
	// InstanceTimeout is the per-instance deadline. It must clear the
	// horizon, or instances wedged behind a partition are failed
	// spuriously.
	InstanceTimeout time.Duration
	// Proposals is the total client load, submitted in Waves waves
	// spaced WaveGap apart starting at scenario start.
	Proposals int
	Waves     int
	WaveGap   time.Duration
	// Horizon is the fault horizon: dropped frames deliver shortly
	// after it, and all fault windows end at or before it.
	Horizon time.Duration
	// Workload, when set, replaces the fixed wave load with a generated
	// workload (internal/workload): every generated event is submitted
	// at its virtual arrival instant, at its cohort's SLO class, and the
	// run's outcomes are captured as trace records (Result.Outcomes).
	// The spec must carry a MaxEvents cap no larger than the service's
	// intake capacity (MaxBatch × MaxInflight), because
	// scenario load is submitted on the clock driver and must never
	// block. Proposals, Waves and WaveGap must be zero. Omitted from the
	// JSON encoding when nil, so legacy specs replay byte-identically.
	Workload *workload.Spec `json:",omitempty"`
	// Classes, when above 1, arms per-SLO-class admission control on the
	// adaptive plane (adapt.Config.Classes); it requires Adaptive and is
	// only meaningful with a classed workload. Omitted when 0.
	Classes int `json:",omitempty"`
	// Links, Partitions and Crashes are the fault schedule.
	Links      []LinkFault
	Partitions []Partition
	Crashes    []Crash
}

// JSON returns the compact canonical encoding of the scenario — the
// replay artifact printed for failing runs. Encoding is deterministic
// (fixed field order, exact float round-trip), so equal specs encode
// byte-identically.
func (sc Scenario) JSON() string {
	b, err := json.Marshal(sc)
	if err != nil {
		// Scenario has no unmarshalable fields; keep the signature clean.
		panic(fmt.Sprintf("chaos: encode scenario: %v", err))
	}
	return string(b)
}

// Events is the scenario's proposal load as the event list the submitter
// drives: the generated workload's arrivals, or Proposals class-0
// proposals split over Waves equal waves WaveGap apart. Values are
// workload.Value(Seed, i) under both generators. The scenario must be
// valid.
func (sc Scenario) Events() []workload.Event {
	if sc.Workload != nil {
		return sc.Workload.Events()
	}
	waves := max(sc.Waves, 1)
	return workload.Waves(sc.Proposals, (sc.Proposals+waves-1)/waves, sc.WaveGap,
		func(i int) model.Value { return workload.Value(sc.Seed, i) })
}

// ParseScenario decodes a spec printed by JSON. A field Scenario does not
// have is refused by name: a misspelled fault would otherwise run as no
// fault. The one exception is the Groups field of specs written for
// several consensus groups: 1 is accepted, and above 1 it is refused, since
// run at one group such a spec would be a different schedule.
func ParseScenario(b []byte) (Scenario, error) {
	var spec struct {
		Scenario
		Groups int
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return Scenario{}, fmt.Errorf("chaos: parse scenario: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return Scenario{}, errors.New("chaos: parse scenario: data after the spec")
	}
	if err := refuseGroups("scenario", spec.Groups, ""); err != nil {
		return Scenario{}, err
	}
	return spec.Scenario, spec.Scenario.Validate()
}

// refuseGroups refuses a scenario or trace header that describes more
// than one consensus group — Groups above 1, or a Placement other than
// the round-robin every one-group recording carried — naming the field:
// a process runs one group, so running it would not be the recorded
// schedule.
func refuseGroups(what string, groups int, placement string) error {
	switch {
	case groups > 1:
		return fmt.Errorf("chaos: %s field Groups=%d asks for several consensus groups; a process runs one", what, groups)
	case placement != "" && placement != "round-robin":
		return fmt.Errorf("chaos: %s field Placement=%q asks for placement across consensus groups; a process runs one", what, placement)
	}
	return nil
}

// Validate rejects specs the harness cannot run faithfully.
func (sc Scenario) Validate() error {
	if sc.N < 2 {
		return fmt.Errorf("chaos: n=%d, need at least 2", sc.N)
	}
	if sc.T < 0 || sc.T >= sc.N {
		return fmt.Errorf("chaos: t=%d outside [0,%d)", sc.T, sc.N)
	}
	switch sc.Algorithm {
	case "atplus2", "atplus2ff", "diamonds", "afplus2":
	default: // core.ByName knows more names; only the indulgent algorithms are exercised here
		return fmt.Errorf("chaos: unknown algorithm %q", sc.Algorithm)
	}
	if sc.Workload != nil {
		if err := sc.Workload.Validate(); err != nil {
			return fmt.Errorf("chaos: workload: %w", err)
		}
		if bound := sc.MaxBatch * sc.MaxInflight; sc.Workload.MaxEvents < 1 || sc.Workload.MaxEvents > bound {
			return fmt.Errorf("chaos: workload MaxEvents %d outside [1,%d] (MaxBatch×MaxInflight — scenario load must never block the clock driver)",
				sc.Workload.MaxEvents, bound)
		}
		if sc.Proposals != 0 || sc.Waves != 0 || sc.WaveGap != 0 {
			return errors.New("chaos: a workload scenario must leave Proposals, Waves and WaveGap zero")
		}
	} else if sc.Proposals < 1 {
		return fmt.Errorf("chaos: %d proposals", sc.Proposals)
	}
	if sc.Classes < 0 || sc.Classes > adapt.MaxClasses {
		return fmt.Errorf("chaos: %d classes outside [0,%d]", sc.Classes, adapt.MaxClasses)
	}
	if sc.Classes > 1 && !sc.Adaptive {
		return errors.New("chaos: Classes needs Adaptive (per-class admission lives on the control plane)")
	}
	if sc.BaseTimeout <= 0 || sc.Horizon <= 0 || sc.InstanceTimeout <= sc.Horizon {
		return fmt.Errorf("chaos: need BaseTimeout>0, Horizon>0 and InstanceTimeout>Horizon (got %v, %v, %v)",
			sc.BaseTimeout, sc.Horizon, sc.InstanceTimeout)
	}
	crashed := make(map[model.ProcessID]bool)
	for _, c := range sc.Crashes {
		if c.P < 1 || int(c.P) > sc.N {
			return fmt.Errorf("chaos: crash of unknown process %d", c.P)
		}
		if c.Restart != 0 && c.Restart <= c.At {
			return fmt.Errorf("chaos: p%d restarts at %v, before its crash at %v", c.P, c.Restart, c.At)
		}
		crashed[c.P] = true
	}
	if len(crashed) > sc.T {
		return fmt.Errorf("chaos: %d distinct crashed processes exceed t=%d", len(crashed), sc.T)
	}
	for _, p := range sc.Partitions {
		if p.Until <= p.From {
			return fmt.Errorf("chaos: partition window [%v,%v) is empty", p.From, p.Until)
		}
		if p.Until > sc.Horizon {
			return fmt.Errorf("chaos: partition heals at %v, past horizon %v", p.Until, sc.Horizon)
		}
	}
	for _, l := range sc.Links {
		if l.From < 1 || int(l.From) > sc.N || l.To < 1 || int(l.To) > sc.N {
			return fmt.Errorf("chaos: link fault on unknown pair %d->%d", l.From, l.To)
		}
		if l.DropP < 0 || l.DropP > 1 || l.DupP < 0 || l.DupP > 1 {
			return fmt.Errorf("chaos: link %d->%d probabilities outside [0,1]", l.From, l.To)
		}
	}
	return nil
}

// generated scenario shape: the ranges are chosen so that every
// generated scenario is live by construction — fault windows end at the
// horizon, instance deadlines clear it with slack for the post-heal
// rounds, crashes stay within t — while still exercising partitions,
// gray links, drop/dup/jitter and mid-run crashes.
var generatedAlgorithms = []string{"atplus2", "atplus2ff", "diamonds"}

// Generate derives a random-but-reproducible scenario from seed: the
// same seed always yields the same spec (math/rand's sequence for a
// fixed seed is part of Go's compatibility promise).
func Generate(seed int64) Scenario {
	r := rand.New(rand.NewSource(seed))
	n := 3 + r.Intn(3) // 3..5
	t := 1
	if n >= 5 && r.Intn(2) == 0 {
		t = 2
	}
	base := time.Duration(20+10*r.Intn(4)) * time.Millisecond // 20..50ms
	horizon := time.Duration(400+200*r.Intn(4)) * time.Millisecond

	sc := Scenario{
		Seed:        seed,
		N:           n,
		T:           t,
		Algorithm:   generatedAlgorithms[r.Intn(len(generatedAlgorithms))],
		Adaptive:    r.Intn(4) == 0,
		BaseTimeout: base,
		MaxBatch:    2 + r.Intn(3),
		Linger:      time.Duration(1+r.Intn(4)) * time.Millisecond,
		MaxInflight: 2 + r.Intn(3),
		Horizon:     horizon,
		// Post-heal, every round completes within a few base timeouts;
		// 64× base clears even a fully backed-off detector.
		InstanceTimeout: horizon + 64*base,
	}
	// Load: never more proposals than the intake can hold outright, so
	// wave submission (which runs on the clock driver) cannot block.
	cap := sc.MaxBatch * sc.MaxInflight
	sc.Proposals = 2 + r.Intn(2*cap)
	if sc.Proposals > cap {
		sc.Proposals = cap
	}
	sc.Waves = 1 + r.Intn(3)
	sc.WaveGap = horizon / time.Duration(sc.Waves+1)

	// Per-link noise: delay, jitter, drops, duplicates.
	for from := 1; from <= n; from++ {
		for to := 1; to <= n; to++ {
			if from == to || r.Float64() >= 0.3 {
				continue
			}
			sc.Links = append(sc.Links, LinkFault{
				From:   model.ProcessID(from),
				To:     model.ProcessID(to),
				Delay:  time.Duration(r.Int63n(int64(2 * base))),
				Jitter: time.Duration(r.Int63n(int64(base))),
				DropP:  0.3 * r.Float64(),
				DupP:   0.2 * r.Float64(),
			})
		}
	}
	// A gray link: one direction of one pair turns very slow.
	if r.Intn(3) == 0 {
		from := model.ProcessID(1 + r.Intn(n))
		to := model.ProcessID(1 + r.Intn(n))
		if from != to {
			sc.Links = append(sc.Links, LinkFault{
				From:  from,
				To:    to,
				Delay: time.Duration(4+r.Intn(5)) * base,
			})
		}
	}
	// A partition: random nonempty split, window inside the horizon.
	if r.Intn(2) == 0 {
		var a, b []model.ProcessID
		for p := 1; p <= n; p++ {
			if r.Intn(2) == 0 {
				a = append(a, model.ProcessID(p))
			} else {
				b = append(b, model.ProcessID(p))
			}
		}
		if len(a) > 0 && len(b) > 0 {
			from := time.Duration(r.Int63n(int64(horizon / 2)))
			width := time.Duration(r.Int63n(int64(horizon/2))) + time.Millisecond
			until := from + width
			if until > horizon {
				until = horizon
			}
			sc.Partitions = append(sc.Partitions, Partition{
				A: a, B: b, From: from, Until: until, OneWay: r.Intn(2) == 0,
			})
		}
	}
	// Crashes: up to t distinct processes, optionally restarting.
	k := r.Intn(t + 1)
	perm := r.Perm(n)
	for i := 0; i < k; i++ {
		c := Crash{
			P:  model.ProcessID(perm[i] + 1),
			At: time.Duration(r.Int63n(int64(horizon / 2))),
		}
		if r.Intn(2) == 0 {
			c.Restart = c.At + time.Duration(r.Int63n(int64(horizon/4))) + time.Millisecond
		}
		sc.Crashes = append(sc.Crashes, c)
	}
	return sc
}
