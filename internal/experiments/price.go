package experiments

import (
	"fmt"

	"indulgence/internal/baseline"
	"indulgence/internal/core"
	"indulgence/internal/lowerbound"
	"indulgence/internal/model"
	"indulgence/internal/sched"
	"indulgence/internal/sim"
	"indulgence/internal/stats"
)

// E3PriceTable reproduces the paper's headline comparison (Sects. 1.3–1.4):
// worst-case global decision rounds in synchronous runs, measured by
// exhaustive serial-run exploration, for
//
//   - FloodSet and FloodSetWS in SCS: t+1 (the non-indulgent yardstick),
//   - A_{t+2} and its ◇S adaptation in ES: t+2 (the price of indulgence
//     is exactly one round),
//   - Hurfin–Raynal in ES: 2t+2 (the previously fastest indulgent
//     algorithm),
//   - the CT-style underlying consensus in ES: 3t+3 (a generic
//     rotating-coordinator ◇S algorithm, included for scale).
//
// maxT bounds the resilience sweep. Exhaustive exploration (prefix
// missing sets) is used for t ≤ 3, where each algorithm's exploration at
// n = 7 fits a budget of 3 s on a 2-vCPU box (0.15–2.1 s measured, 4.1M
// to 16M serial runs in 16k to 459k classes); larger t report the
// known-worst *witness* run of each algorithm (the coordinator-killer
// schedule for the rotating-coordinator algorithms; any synchronous run
// for the flooding algorithms, whose decision round is schedule-
// independent), marked with a trailing 'w' in the table.
func E3PriceTable(maxT int) (*Outcome, error) {
	o := &Outcome{
		ID:    "E3",
		Title: "The price of indulgence: worst-case synchronous decision rounds (measured vs formula)",
	}
	type algo struct {
		name    string
		factory model.Factory
		syn     model.Synchrony
		// formula computes the expected worst-case round for a given t.
		formula func(t int) int
		label   string
		// horizon computes the last round worth crashing in.
		horizon func(t int) model.Round
		// witness builds the known-worst schedule for large t.
		witness func(n, t int) *sched.Schedule
	}
	algos := []algo{
		{
			name: "FloodSet (SCS)", factory: baseline.NewFloodSet(), syn: model.SCS,
			formula: func(t int) int { return t + 1 }, label: "t+1",
			horizon: func(t int) model.Round { return model.Round(t + 1) },
			witness: sched.FailureFree,
		},
		{
			name: "FloodSetWS (SCS/P)", factory: baseline.NewFloodSetWS(), syn: model.SCS,
			formula: func(t int) int { return t + 1 }, label: "t+1",
			horizon: func(t int) model.Round { return model.Round(t + 1) },
			witness: sched.FailureFree,
		},
		{
			name: "A_t+2 (ES)", factory: core.New(core.Options{}), syn: model.ES,
			formula: func(t int) int { return t + 2 }, label: "t+2",
			horizon: func(t int) model.Round { return model.Round(t + 2) },
			witness: sched.FailureFree,
		},
		{
			name: "A_diamondS (ES+dS)", factory: core.NewDiamondS(), syn: model.ES,
			formula: func(t int) int { return t + 2 }, label: "t+2",
			horizon: func(t int) model.Round { return model.Round(t + 2) },
			witness: sched.FailureFree,
		},
		{
			name: "HurfinRaynal (ES+dS)", factory: baseline.NewHurfinRaynal(), syn: model.ES,
			formula: func(t int) int { return 2*t + 2 }, label: "2t+2",
			horizon: func(t int) model.Round { return model.Round(2*t + 2) },
			witness: witnessKiller(baseline.RoundsPerPhaseHR),
		},
		{
			name: "CT rotating coord (ES+dS)", factory: baseline.NewCT(), syn: model.ES,
			formula: func(t int) int { return 3*t + 3 }, label: "3t+3",
			horizon: func(t int) model.Round { return model.Round(3*t + 3) },
			witness: witnessKiller(baseline.RoundsPerPhaseCT),
		},
	}

	const maxExploreT = 3
	headers := []string{"algorithm", "formula"}
	for t := 1; t <= maxT; t++ {
		n := 2*t + 1
		headers = append(headers, fmt.Sprintf("t=%d (n=%d)", t, n))
	}
	table := stats.NewTable("Worst-case global decision round over all serial runs ('w' = witness run)", headers...)

	for _, a := range algos {
		row := []string{a.name, a.label}
		for t := 1; t <= maxT; t++ {
			n := 2*t + 1
			var (
				measured model.Round
				suffix   string
			)
			if t <= maxExploreT {
				sr, err := serialWorst(a.factory, a.syn, n, t, a.horizon(t), lowerbound.PrefixSubsets)
				if err != nil {
					return nil, fmt.Errorf("E3 %s t=%d: %w", a.name, t, err)
				}
				measured = sr.worst
				o.expect(sr.violations == 0, "E3: %s t=%d consensus violation", a.name, t)
				o.expect(!sr.undecided, "E3: %s t=%d undecided run", a.name, t)
			} else {
				res, err := sim.Run(sim.Config{
					Synchrony: a.syn,
					Schedule:  a.witness(n, t),
					Proposals: distinctProposals(n),
					Factory:   a.factory,
				})
				if err != nil {
					return nil, fmt.Errorf("E3 %s t=%d witness: %w", a.name, t, err)
				}
				measured = gdrOf(res)
				suffix = "w"
			}
			row = append(row, fmt.Sprintf("%d%s", measured, suffix))
			o.expect(int(measured) == a.formula(t),
				"E3: %s t=%d measured %d, formula %s=%d", a.name, t, measured, a.label, a.formula(t))
		}
		table.AddRow(row...)
	}
	o.Tables = append(o.Tables, table)
	o.Notes = append(o.Notes,
		"SCS algorithms decide at t+1; the indulgent optimum is t+2 (one extra round — the inherent price);",
		"the prior state of the art (Hurfin-Raynal) pays 2t+2, losing two rounds per crashed coordinator.")
	return o, nil
}

// E4FailureFree reproduces Sect. 5.2 (Fig. 4): in the failure-free,
// suspicion-free synchronous run, the optimized A_{t+2} decides at round 2
// — the floor proved in [Keidar & Rajsbaum], which no algorithm beats —
// while the unoptimized algorithm still takes t+2. The coordinator
// baselines are also measured for context.
func E4FailureFree() (*Outcome, error) {
	o := &Outcome{
		ID:    "E4",
		Title: "Failure-free optimization (Fig. 4): 2-round decision in well-behaved runs",
	}
	type algo struct {
		name    string
		factory func(t int) model.Factory
		expect  func(t int) int
		label   string
	}
	algos := []algo{
		{"A_t+2", func(int) model.Factory { return core.New(core.Options{}) },
			func(t int) int { return t + 2 }, "t+2"},
		{"A_t+2+ff", func(int) model.Factory { return core.New(core.Options{FailureFreeFast: true}) },
			func(int) int { return 2 }, "2"},
		{"HurfinRaynal", func(int) model.Factory { return baseline.NewHurfinRaynal() },
			func(int) int { return 2 }, "2"},
		{"CT rotating coord", func(int) model.Factory { return baseline.NewCT() },
			func(int) int { return 3 }, "3"},
	}
	headers := []string{"algorithm", "formula"}
	cases := []struct{ n, t int }{{3, 1}, {5, 2}, {7, 3}, {9, 4}}
	for _, c := range cases {
		headers = append(headers, fmt.Sprintf("n=%d,t=%d", c.n, c.t))
	}
	table := stats.NewTable("Global decision round in the failure-free synchronous run", headers...)
	for _, a := range algos {
		row := []string{a.name, a.label}
		for _, c := range cases {
			res, rep, err := runOnce(a.factory(c.t), sched.FailureFree(c.n, c.t), distinctProposals(c.n))
			if err != nil {
				return nil, fmt.Errorf("E4 %s n=%d: %w", a.name, c.n, err)
			}
			gdr := gdrOf(res)
			row = append(row, fmt.Sprintf("%d", gdr))
			o.expect(int(gdr) == a.expect(c.t), "E4: %s n=%d t=%d measured %d want %d",
				a.name, c.n, c.t, gdr, a.expect(c.t))
			o.expect(rep.OK(), "E4: %s n=%d t=%d: %v", a.name, c.n, c.t, rep.Err())
			o.expect(gdr >= 2, "E4: %s n=%d decided in one round, below the 2-round lower bound", a.name, c.n)
		}
		table.AddRow(row...)
	}
	o.Tables = append(o.Tables, table)
	o.Notes = append(o.Notes,
		"no algorithm decides in a single round (the 2-round well-behaved lower bound of [11] holds);",
		"the Fig. 4 optimization reaches that floor while retaining the t+2 guarantee in all other synchronous runs.")
	return o, nil
}
