package sim_test

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"indulgence/internal/core"
	"indulgence/internal/model"
	"indulgence/internal/sched"
	"indulgence/internal/sim"
)

// updateRuns rewrites testdata/runs.golden from the current tree. Only a
// change that means to move a run (and says which and why) may regenerate
// it; a change to the simulator's or the schedule's representation must
// pass against the committed file.
var updateRuns = flag.Bool("update-runs", false, "rewrite testdata/runs.golden")

const runsGolden = "testdata/runs.golden"

// goldenAlgorithms are every core and baseline algorithm, by the names the
// command line resolves.
var goldenAlgorithms = []string{
	"atplus2", "atplus2ff", "diamonds", "afplus2",
	"floodset", "floodsetws", "ct", "hurfinraynal", "amr",
}

type goldenSchedule struct {
	name string
	syn  model.Synchrony
	s    *sched.Schedule
}

// goldenSchedules is the pinned corpus: seeded random synchronous and
// eventually synchronous schedules (delayed and lost messages, crashes at
// every stage), the coordinator killer, the delayed-sender prefix and the
// split brain, plus two schedules Validate rejects with a single
// violation each.
func goldenSchedules() []goldenSchedule {
	var out []goldenSchedule
	rng := rand.New(rand.NewSource(46))
	for i := 0; i < 4; i++ {
		out = append(out, goldenSchedule{fmt.Sprintf("RandomSynchronous/%d", i), model.SCS,
			sched.RandomSynchronous(5, 2, sched.RandomOpts{Rng: rng, MaxCrashRound: 4})})
	}
	for i := 0; i < 4; i++ {
		out = append(out, goldenSchedule{fmt.Sprintf("RandomSynchronousDelayed/%d", i), model.ES,
			sched.RandomSynchronous(7, 3, sched.RandomOpts{Rng: rng, MaxCrashRound: 5, DelayCrashSends: true})})
	}
	for i, gsr := range []model.Round{2, 3, 4, 6} {
		out = append(out, goldenSchedule{fmt.Sprintf("RandomES/%d", i), model.ES,
			sched.RandomES(5, 2, gsr, sched.RandomOpts{Rng: rng, MaxCrashRound: gsr + 2})})
		out = append(out, goldenSchedule{fmt.Sprintf("RandomES7/%d", i), model.ES,
			sched.RandomES(7, 2, gsr, sched.RandomOpts{Rng: rng, MaxCrashRound: gsr + 3})})
	}
	out = append(out,
		goldenSchedule{"KillCoordinators/2", model.SCS, sched.KillCoordinators(5, 2, 2)},
		goldenSchedule{"KillCoordinators/3", model.ES, sched.KillCoordinators(7, 3, 3)},
		goldenSchedule{"DelayedSenderPrefix/5", model.ES, sched.DelayedSenderPrefix(5, 2, 3, 1)},
		goldenSchedule{"DelayedSenderPrefix/7", model.ES, sched.DelayedSenderPrefix(7, 2, 4, 7)},
		goldenSchedule{"SplitBrain/4", model.ES, sched.SplitBrain(4, 3)},
		goldenSchedule{"SplitBrain/6", model.ES, sched.SplitBrain(6, 2)},
		goldenSchedule{"TooManyCrashes", model.ES, sched.New(5, 2).Crash(1, 1).Crash(2, 2).Crash(3, 3)},
		goldenSchedule{"LostBetweenCorrect", model.ES, sched.New(5, 2).Crash(4, 2).Drop(1, 1, 2)},
	)
	return out
}

// TestRunsGolden pins what the simulator does with every core and
// baseline algorithm over the golden corpus — each process's decision,
// the message counts, the schedule's rendering and its validation
// verdict — byte for byte against testdata/runs.golden. Unlike the
// explorer, the corpus takes the delayed-delivery path.
func TestRunsGolden(t *testing.T) {
	var b strings.Builder
	sm := sim.NewSimulator()
	for _, gs := range goldenSchedules() {
		fmt.Fprintf(&b, "%s %v %v\n", gs.name, gs.syn, gs.s)
		fmt.Fprintf(&b, "  validate: %v\n", gs.s.Validate(gs.syn))
		proposals := make([]model.Value, gs.s.N())
		for i := range proposals {
			proposals[i] = model.Value(1 + (i*3)%gs.s.N())
		}
		for _, name := range goldenAlgorithms {
			factory, _, err := core.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			cfg := sim.Config{Synchrony: gs.syn, Schedule: gs.s, Proposals: proposals, Factory: factory}
			traced, err := sim.Run(cfg)
			if err != nil {
				fmt.Fprintf(&b, "  %s: %v\n", name, err)
				continue
			}
			cfg.SkipTrace = true
			lean, err := sm.Run(cfg)
			if err != nil {
				t.Fatalf("%s %s: lean run failed after the traced run passed: %v", gs.name, name, err)
			}
			line := goldenLine(lean)
			if got := goldenLine(traced); got != line {
				t.Errorf("%s %s: traced %s, lean %s", gs.name, name, got, line)
			}
			fmt.Fprintf(&b, "  %s: %s\n", name, line)
		}
	}
	got := b.String()
	if *updateRuns {
		if err := os.WriteFile(runsGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(runsGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	wantLines := strings.Split(string(want), "\n")
	for i, line := range strings.Split(got, "\n") {
		if i >= len(wantLines) || line != wantLines[i] {
			t.Fatalf("runs line %d: got %q, golden %q", i+1, line, wantLines[min(i, len(wantLines)-1)])
		}
	}
	t.Fatalf("runs: golden has %d lines, got %d", len(wantLines), strings.Count(got, "\n")+1)
}

// goldenLine renders one run: each process's decision value and round
// (p3=⊥ for a process that never decided), the rounds executed and the
// message counts.
func goldenLine(r *sim.Result) string {
	var b strings.Builder
	for i, d := range r.Decisions {
		if d.Decided() {
			fmt.Fprintf(&b, "p%d=%d@%d ", i+1, d.Value, d.Round)
		} else {
			fmt.Fprintf(&b, "p%d=⊥ ", i+1)
		}
	}
	fmt.Fprintf(&b, "rounds=%d all=%v sent=%d delivered=%d",
		r.Rounds, r.AllAliveDecided, r.MessagesSent, r.MessagesDelivered)
	return b.String()
}
