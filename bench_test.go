// The benchmark harness regenerates every experiment table of the paper
// (EXPERIMENTS.md): BenchmarkExperiments runs the experiment catalogue,
// one sub-benchmark per experiment — workload generation, parameter
// sweep, baselines and checks — and prints each experiment's tables on
// its first iteration, so
//
//	go test -bench=Experiments -benchtime=1x
//
// reproduces the full evaluation. The three BenchmarkMicro* targets time
// simulator-side substrate the perfbench ladder has no row for; they are
// working tools with no numbers of record — every number the repository
// stands behind lives in perfbench/BASELINE.json.
package indulgence_test

import (
	"fmt"
	"math/rand"
	"testing"

	"indulgence"
	"indulgence/internal/experiments"
)

// BenchmarkExperiments regenerates every table of the catalogue with the
// parameters `indulgence table` and experiments.All use.
func BenchmarkExperiments(b *testing.B) {
	for _, e := range experiments.Catalog {
		b.Run(e.ID, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				o, err := e.Run(experiments.DefaultSamples, experiments.DefaultSeed)
				if err != nil {
					b.Fatalf("%s: %v", e.ID, err)
				}
				if !o.OK() {
					b.Fatalf("%s failed: %v", e.ID, o.Failures)
				}
				// Go re-runs a bench to calibrate b.N; print once.
				if i == 0 && b.N == 1 {
					fmt.Println(o)
				}
			}
		})
	}
}

// BenchmarkMicroSimulatedRun measures one full simulated A_{t+2} run
// (n=5, t=2, failure-free) with trace and validation on: the substrate
// cost per data point of every experiment table.
func BenchmarkMicroSimulatedRun(b *testing.B) {
	proposals := []indulgence.Value{3, 1, 4, 1, 5}
	factory := indulgence.NewAtPlus2(indulgence.AtPlus2Options{})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := indulgence.Simulate(indulgence.SimConfig{
			Synchrony: indulgence.ES,
			Schedule:  indulgence.FailureFree(5, 2),
			Proposals: proposals,
			Factory:   factory,
		})
		if err != nil {
			b.Fatal(err)
		}
		if gdr, _ := res.GlobalDecisionRound(); gdr != 4 {
			b.Fatalf("gdr = %d", gdr)
		}
	}
}

// BenchmarkMicroSimulateBatch measures a 64-run batch of traceless runs
// through the worker pool (per-run cost).
func BenchmarkMicroSimulateBatch(b *testing.B) {
	proposals := []indulgence.Value{3, 1, 4, 1, 5}
	factory := indulgence.NewAtPlus2(indulgence.AtPlus2Options{})
	s := indulgence.FailureFree(5, 2)
	cfgs := make([]indulgence.SimConfig, 64)
	for i := range cfgs {
		cfgs[i] = indulgence.SimConfig{
			Synchrony:      indulgence.ES,
			Schedule:       s,
			Proposals:      proposals,
			Factory:        factory,
			SkipTrace:      true,
			SkipValidation: true,
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i += len(cfgs) {
		if _, err := indulgence.SimulateBatch(0, cfgs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMicroRandomES measures random eventually synchronous schedule
// generation plus validation (the E7 workload generator), at the E7 size
// and at n = 64, where a round draws hundreds of delays.
func BenchmarkMicroRandomES(b *testing.B) {
	for _, sz := range []struct {
		n, t int
		gsr  indulgence.Round
	}{{5, 2, 4}, {64, 31, 8}} {
		b.Run(fmt.Sprintf("n=%d", sz.n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s := indulgence.RandomES(sz.n, sz.t, sz.gsr, indulgence.RandomOpts{Rng: rng})
				if err := s.Validate(indulgence.ES); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
