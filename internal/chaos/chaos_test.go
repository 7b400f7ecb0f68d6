package chaos

import (
	"bytes"
	"encoding/json"
	"runtime"
	"strings"
	"testing"
	"time"

	"indulgence/internal/model"
	"indulgence/internal/workload"
)

// pin serializes goroutine scheduling for the reproducibility contract:
// seed replay is promised under GOMAXPROCS(1), matching the chaos CLI.
func pin(t *testing.T) {
	t.Helper()
	old := runtime.GOMAXPROCS(1)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

// TestScenarioSpecRoundTrip: the printed JSON of a spec re-encodes
// byte-identically after a parse — the replay artifact is lossless.
func TestScenarioSpecRoundTrip(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		sc := Generate(seed)
		if err := sc.Validate(); err != nil {
			t.Fatalf("seed %d: generated invalid scenario: %v", seed, err)
		}
		enc := sc.JSON()
		sc2, err := ParseScenario([]byte(enc))
		if err != nil {
			t.Fatalf("seed %d: parse: %v", seed, err)
		}
		if enc2 := sc2.JSON(); enc != enc2 {
			t.Fatalf("seed %d: spec not stable under round-trip:\n%s\n%s", seed, enc, enc2)
		}
	}
}

// TestParseScenarioRefusesUnknownFields: a spec field Scenario does not
// have is an error naming it, at the top level and inside a fault, so a
// misspelled Crashes cannot run crash-free. Groups is the one legacy
// field: 1 parses to the same spec, and above 1 it is still refused by
// name.
func TestParseScenarioRefusesUnknownFields(t *testing.T) {
	sc := Generate(5)
	sc.Crashes = []Crash{{P: 2, At: time.Millisecond}}
	sc.Links = []LinkFault{{From: 1, To: 2, Delay: time.Millisecond}}
	spec := sc.JSON()
	for _, tc := range []struct {
		name, from, to, want string
	}{
		{"misspelled crashes", `"Crashes":`, `"Crashs":`, `"Crashs"`},
		{"misspelled link delay", `"Delay":`, `"Delays":`, `"Delays"`},
		{"several groups", `"Horizon":`, `"Groups":3,"Horizon":`, "Groups=3"},
		{"data after the spec", spec, spec + `{}`, "after the spec"},
	} {
		bad := strings.Replace(spec, tc.from, tc.to, 1)
		if bad == spec {
			t.Fatalf("%s: %q not in the spec", tc.name, tc.from)
		}
		if _, err := ParseScenario([]byte(bad)); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err %v, want one naming %s", tc.name, err, tc.want)
		}
	}
	one := strings.Replace(spec, `"Horizon":`, `"Groups":1,"Horizon":`, 1)
	if got, err := ParseScenario([]byte(one)); err != nil || got.JSON() != spec {
		t.Errorf("Groups 1: %v, or it re-encodes differently", err)
	}
}

// TestGenerateDeterministic: the same seed always yields the same spec.
func TestGenerateDeterministic(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		a, _ := json.Marshal(Generate(seed))
		b, _ := json.Marshal(Generate(seed))
		if !bytes.Equal(a, b) {
			t.Fatalf("seed %d: two generations differ", seed)
		}
	}
}

// TestRunQuietScenario: a fault-free hand-written spec decides every
// proposal with no violations, in a sliver of wall time.
func TestRunQuietScenario(t *testing.T) {
	pin(t)
	sc := Scenario{
		Seed: 7, N: 4, T: 1,
		Algorithm:       "atplus2",
		BaseTimeout:     25 * time.Millisecond,
		MaxBatch:        4,
		Linger:          2 * time.Millisecond,
		MaxInflight:     4,
		InstanceTimeout: 2 * time.Second,
		Proposals:       8,
		Waves:           2,
		WaveGap:         10 * time.Millisecond,
		Horizon:         500 * time.Millisecond,
	}
	r := Run(sc, Options{})
	if r.Err != nil {
		t.Fatalf("run: %v", r.Err)
	}
	if !r.OK() || r.Decided != sc.Proposals {
		t.Fatalf("quiet scenario not clean: decided=%d shed=%d failed=%d wedged=%v violations=%v\nlog:\n%s",
			r.Decided, r.Shed, r.Failed, r.Wedged, r.Violations, r.Log)
	}
}

// TestRunReproducible: the same spec run twice produces an identical
// decision log — the seed-replay contract, exercised on a scenario
// with partitions, crashes and link noise.
func TestRunReproducible(t *testing.T) {
	pin(t)
	for seed := int64(1); seed <= 6; seed++ {
		sc := Generate(seed)
		a := Run(sc, Options{})
		if a.Err != nil {
			t.Fatalf("seed %d: %v", seed, a.Err)
		}
		b := Run(sc, Options{})
		if b.Err != nil {
			t.Fatalf("seed %d rerun: %v", seed, b.Err)
		}
		if a.Log != b.Log {
			t.Errorf("seed %d: decision logs differ\nfirst:\n%s\nsecond:\n%s\nspec: %s",
				seed, a.Log, b.Log, sc.JSON())
		}
	}
}

// TestWaveScenarioIsItsEventList: a wave scenario is nothing but an
// event list. Each scenario runs twice — through Run, which derives the
// list with workload.Waves, and through run on a list built here the way
// the retired wave scheduler cut its waves (per = ceil(Proposals/Waves),
// wave w covering [w·per, min((w+1)·per, Proposals)) at w·WaveGap) — and
// both must decide the same proposals in the same instances.
func TestWaveScenarioIsItsEventList(t *testing.T) {
	pin(t)
	quiet := Scenario{
		Seed: 7, N: 4, T: 1,
		Algorithm:       "atplus2",
		BaseTimeout:     25 * time.Millisecond,
		MaxBatch:        4,
		Linger:          2 * time.Millisecond,
		MaxInflight:     4,
		InstanceTimeout: 2 * time.Second,
		Proposals:       7,
		Waves:           3,
		WaveGap:         10 * time.Millisecond,
		Horizon:         500 * time.Millisecond,
	}
	for _, sc := range []Scenario{quiet, Generate(3), Generate(9), Generate(33)} {
		if err := sc.Validate(); err != nil {
			t.Fatalf("seed %d: %v", sc.Seed, err)
		}
		var events []workload.Event
		waves := max(sc.Waves, 1)
		per := (sc.Proposals + waves - 1) / waves
		for w := 0; w < waves; w++ {
			for i := w * per; i < min((w+1)*per, sc.Proposals); i++ {
				events = append(events, workload.Event{
					Seq: i, Key: uint64(i), At: time.Duration(w) * sc.WaveGap,
					Value: model.Value(int64(i+1)*1_000_003 + sc.Seed),
				})
			}
		}
		byWaves, byList := Run(sc, Options{}), run(sc, events, Options{})
		if byWaves.Err != nil || byList.Err != nil {
			t.Fatalf("seed %d: %v / %v", sc.Seed, byWaves.Err, byList.Err)
		}
		if byWaves.Decided != byList.Decided || byWaves.Shed != byList.Shed || byWaves.Failed != byList.Failed {
			t.Errorf("seed %d: waves decided/shed/failed %d/%d/%d, event list %d/%d/%d", sc.Seed,
				byWaves.Decided, byWaves.Shed, byWaves.Failed, byList.Decided, byList.Shed, byList.Failed)
		}
		if len(byWaves.Outcomes) != sc.Proposals || len(byList.Outcomes) != sc.Proposals {
			t.Fatalf("seed %d: %d / %d outcomes for %d proposals", sc.Seed,
				len(byWaves.Outcomes), len(byList.Outcomes), sc.Proposals)
		}
		for i := range byWaves.Outcomes {
			if a, b := byWaves.Outcomes[i], byList.Outcomes[i]; a != b {
				t.Errorf("seed %d proposal %d: waves %+v, event list %+v", sc.Seed, i, a, b)
			}
		}
		if byWaves.Log != byList.Log {
			t.Errorf("seed %d: decision logs differ\nwaves:\n%s\nevent list:\n%s", sc.Seed, byWaves.Log, byList.Log)
		}
	}
}

// TestSweepSmoke: a seeded batch of generated scenarios runs clean —
// no violations, no wedges, no failed proposals — and the virtual
// schedule compresses (virtual time exceeds wall time).
func TestSweepSmoke(t *testing.T) {
	pin(t)
	count := 25
	if testing.Short() {
		count = 8
	}
	st := Sweep(1000, count, nil, Options{}, nil)
	for _, f := range st.Failures {
		t.Errorf("seed %d: wedged=%v failed=%d violations=%v\nspec: %s\nlog:\n%s",
			f.Scenario.Seed, f.Wedged, f.Failed, f.Violations, f.Scenario.JSON(), f.Log)
	}
	if st.Decided == 0 {
		t.Fatalf("sweep decided nothing: %+v", st)
	}
	t.Logf("sweep: %d runs, %d decided, %d shed, virtual %v in wall %v",
		st.Runs, st.Decided, st.Shed, st.Virtual, st.Wall)
}

// TestCrashScenario: crashing t processes mid-run still decides every
// proposal (the runtime excuses crashed processes; t bounds them).
func TestCrashScenario(t *testing.T) {
	pin(t)
	sc := Scenario{
		Seed: 11, N: 5, T: 2,
		Algorithm:       "atplus2",
		BaseTimeout:     20 * time.Millisecond,
		MaxBatch:        3,
		Linger:          time.Millisecond,
		MaxInflight:     3,
		InstanceTimeout: 3 * time.Second,
		Proposals:       6,
		Waves:           2,
		WaveGap:         50 * time.Millisecond,
		Horizon:         600 * time.Millisecond,
		Crashes: []Crash{
			{P: 2, At: 30 * time.Millisecond},
			{P: 5, At: 70 * time.Millisecond, Restart: 200 * time.Millisecond},
		},
	}
	r := Run(sc, Options{})
	if r.Err != nil {
		t.Fatalf("run: %v", r.Err)
	}
	if !r.OK() || r.Failed > 0 {
		t.Fatalf("crash scenario not clean: decided=%d failed=%d wedged=%v violations=%v\nlog:\n%s",
			r.Decided, r.Failed, r.Wedged, r.Violations, r.Log)
	}
}

// TestPartitionScenario: a full partition below quorum on both sides
// wedges every instance until the heal, then decides — indulgence as a
// runnable property.
func TestPartitionScenario(t *testing.T) {
	pin(t)
	sc := Scenario{
		Seed: 13, N: 4, T: 1,
		Algorithm:       "diamonds",
		BaseTimeout:     20 * time.Millisecond,
		MaxBatch:        4,
		Linger:          time.Millisecond,
		MaxInflight:     2,
		InstanceTimeout: 3 * time.Second,
		Proposals:       4,
		Waves:           1,
		Horizon:         500 * time.Millisecond,
		Partitions: []Partition{{
			A: []model.ProcessID{1, 2}, B: []model.ProcessID{3, 4},
			From: 0, Until: 400 * time.Millisecond,
		}},
	}
	r := Run(sc, Options{})
	if r.Err != nil {
		t.Fatalf("run: %v", r.Err)
	}
	if !r.OK() || r.Failed > 0 {
		t.Fatalf("partition scenario not clean: decided=%d failed=%d wedged=%v violations=%v\nlog:\n%s",
			r.Decided, r.Failed, r.Wedged, r.Violations, r.Log)
	}
	// The heal gates the decisions: virtual completion must lie past
	// the partition window.
	if r.Virtual < 400*time.Millisecond {
		t.Fatalf("decided in %v virtual, inside the partition window", r.Virtual)
	}
}
