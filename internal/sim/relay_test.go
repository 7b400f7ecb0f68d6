package sim_test

import (
	"math/rand"
	"testing"

	"indulgence/internal/check"
	"indulgence/internal/core"
	"indulgence/internal/model"
	"indulgence/internal/payload"
	"indulgence/internal/sched"
	"indulgence/internal/sim"
)

// checkRelayOnce runs one random ES schedule, drawn from seed at n ∈ 3..7,
// t < n/2 and GSR ∈ 1..6, under one of the golden algorithms, and checks
// the DECIDE lifecycle on its trace: a process that decides at round d has
// no step after round d+1; its step at d+1 exists exactly when the run
// reaches round d+1 and the schedule lets it send there, and is the relay
// (DECIDE(v) sent, not completed, nothing received); no process sends
// DECIDE before that step. The run must also solve consensus wherever the
// algorithm's preconditions admit it: its factory accepts the size, and a
// synchronous-model algorithm (FloodSet, FloodSetWS) gets a GSR-1 run,
// which is a synchronous one.
func checkRelayOnce(t *testing.T, seed int64, nIn, tIn, gsrIn, algIn uint8) {
	n := 3 + int(nIn%5)
	tt := int(tIn) % ((n-1)/2 + 1)
	gsr := model.Round(1 + gsrIn%6)
	name := goldenAlgorithms[int(algIn)%len(goldenAlgorithms)]
	factory, _, err := core.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := factory(model.ProcessContext{Self: 1, N: n, T: tt}, 0); err != nil {
		t.Skipf("%s rejects n=%d t=%d: %v", name, n, tt, err)
	}
	s := sched.RandomES(n, tt, gsr, sched.RandomOpts{
		Rng:           rand.New(rand.NewSource(seed)),
		MaxCrashRound: gsr + 3,
	})
	proposals := make([]model.Value, n)
	for i := range proposals {
		proposals[i] = model.Value(i + 1)
	}
	res, err := sim.Run(sim.Config{Synchrony: model.ES, Schedule: s, Proposals: proposals, Factory: factory})
	if err != nil {
		t.Fatalf("%s on %v: %v", name, s, err)
	}
	for i := range res.Run.Procs {
		pt := &res.Run.Procs[i]
		d := pt.DecidedRound
		before := pt.Steps // the steps before the relay, if any
		if d > 0 {
			v, _ := pt.Decided.Get()
			if model.Round(len(pt.Steps)) > d+1 {
				t.Fatalf("%s on %v: p%d decided at %d and has steps through round %d", name, s, pt.ID, d, len(pt.Steps))
			}
			want := d+1 <= res.Rounds && s.SendsIn(pt.ID, d+1)
			if has := model.Round(len(pt.Steps)) == d+1; has != want {
				t.Fatalf("%s on %v: p%d decided at %d: relay step present %v, want %v", name, s, pt.ID, d, has, want)
			}
			if want {
				before = pt.Steps[:d]
				st := pt.Steps[d]
				if st.Sent != (payload.Decide{V: v}) || st.Completes || st.Received != nil {
					t.Fatalf("%s on %v: p%d's relay step %+v, want DECIDE(%d) sent, not completed", name, s, pt.ID, st, v)
				}
			}
		}
		for _, st := range before {
			if _, ok := st.Sent.(payload.Decide); ok {
				t.Fatalf("%s on %v: p%d sent %v in round %d, before any relay", name, s, pt.ID, st.Sent, st.Round)
			}
		}
	}
	if (name == "floodset" || name == "floodsetws") && gsr > 1 {
		return
	}
	if err := check.Consensus(res, proposals).Err(); err != nil {
		t.Fatalf("%s on %v: %v", name, s, err)
	}
}

// FuzzRelayOnce checks the DECIDE lifecycle (checkRelayOnce) on random
// ES runs of every golden algorithm.
func FuzzRelayOnce(f *testing.F) {
	f.Add(int64(1), uint8(2), uint8(2), uint8(5), uint8(0))
	f.Add(int64(2), uint8(4), uint8(3), uint8(3), uint8(2))
	f.Add(int64(3), uint8(4), uint8(2), uint8(1), uint8(3))
	f.Add(int64(4), uint8(2), uint8(1), uint8(4), uint8(7))
	f.Fuzz(checkRelayOnce)
}

// TestRelayOnce runs the fuzz target's check over a fixed set of random
// inputs, so that every test run covers every algorithm beyond the seed
// corpus.
func TestRelayOnce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		in := [4]uint8{uint8(rng.Intn(256)), uint8(rng.Intn(256)), uint8(rng.Intn(256)), uint8(i)}
		t.Run("", func(t *testing.T) { checkRelayOnce(t, rng.Int63(), in[0], in[1], in[2], in[3]) })
	}
}
