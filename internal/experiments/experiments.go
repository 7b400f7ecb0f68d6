// Package experiments encodes the paper's measurable claims (R1–R10 in
// DESIGN.md) as reusable experiment runners. Each runner executes the
// relevant run families — exhaustive serial-run explorations, adversarial
// constructions, random sweeps — and returns a rendered table together
// with a machine-checkable pass/fail verdict comparing the measurements
// against the paper's formulas. The benchmark harness (bench_test.go), the
// CLI (cmd/indulgence) and EXPERIMENTS.md are all generated from these
// runners, so the reported numbers can never drift from the checked ones.
package experiments

import (
	"fmt"

	"indulgence/internal/model"
	"indulgence/internal/stats"
)

// Outcome is the result of one experiment.
type Outcome struct {
	// ID is the experiment identifier (E1..E9, A1..A4).
	ID string
	// Title is a one-line description.
	Title string
	// Tables holds the rendered result tables.
	Tables []*stats.Table
	// Notes holds human-readable observations printed after the tables.
	Notes []string
	// Failures lists expectation mismatches; empty means the paper's
	// claim was reproduced.
	Failures []string
}

// OK reports whether every expectation of the experiment was met.
func (o *Outcome) OK() bool { return len(o.Failures) == 0 }

// String renders the outcome.
func (o *Outcome) String() string {
	s := fmt.Sprintf("== %s: %s ==\n", o.ID, o.Title)
	for _, t := range o.Tables {
		s += t.String()
	}
	for _, n := range o.Notes {
		s += "note: " + n + "\n"
	}
	if o.OK() {
		s += "RESULT: PASS (paper claim reproduced)\n"
	} else {
		s += "RESULT: FAIL\n"
		for _, f := range o.Failures {
			s += "  - " + f + "\n"
		}
	}
	return s
}

// expect records a failure when the condition does not hold.
func (o *Outcome) expect(cond bool, format string, args ...any) {
	if !cond {
		o.Failures = append(o.Failures, fmt.Sprintf(format, args...))
	}
}

// distinctProposals returns the canonical worst-case initial configuration
// 1..n (all proposals distinct, so flooding algorithms must genuinely
// converge).
func distinctProposals(n int) []model.Value {
	out := make([]model.Value, n)
	for i := range out {
		out[i] = model.Value(i + 1)
	}
	return out
}

// Experiment is one entry of the catalogue.
type Experiment struct {
	// ID is the experiment identifier (E1..E10, A1..A4).
	ID string
	// Run executes the experiment. samples and seed size the randomized
	// sweeps (E2, E7); every other experiment is exhaustive or
	// constructed and ignores them.
	Run func(samples int, seed int64) (*Outcome, error)
	// Live marks the experiment that drives the live service stack (E9)
	// instead of the simulator; All leaves it to its own tests.
	Live bool
}

// DefaultSamples and DefaultSeed are the parameters All runs the
// randomized experiments with, and the `table` subcommand's defaults.
const (
	DefaultSamples       = 200
	DefaultSeed    int64 = 1
)

// fixed adapts an experiment that takes no parameters.
func fixed(run func() (*Outcome, error)) func(int, int64) (*Outcome, error) {
	return func(int, int64) (*Outcome, error) { return run() }
}

// Catalog lists every experiment once, in report order. The CLI's
// `table`, All and the benchmark harness all read it, so an experiment
// runs with the same parameters wherever it is regenerated.
var Catalog = []Experiment{
	{ID: "E1", Run: fixed(E1LowerBound)},
	{ID: "E2", Run: E2FastDecision},
	{ID: "E3", Run: fixed(func() (*Outcome, error) { return E3PriceTable(3) })},
	{ID: "E4", Run: fixed(E4FailureFree)},
	{ID: "E5", Run: fixed(E5EarlyDecision)},
	{ID: "E6", Run: fixed(E6EventualFast)},
	{ID: "E7", Run: E7FDSimulation},
	{ID: "E8", Run: fixed(E8ResiliencePrice)},
	{ID: "E9", Run: fixed(E9LiveRuntime), Live: true},
	{ID: "E10", Run: fixed(E10AverageCase)},
	{ID: "A1", Run: fixed(AblationPhase1)},
	{ID: "A2", Run: fixed(AblationHaltExchange)},
	{ID: "A3", Run: fixed(AblationThreshold)},
	{ID: "A4", Run: fixed(AblationPlurality)},
}

// All runs every simulator-backed experiment of the catalogue (E1–E8,
// E10 and the four ablations) at the default parameters and returns the
// outcomes in order. The live experiment E9 is separate.
func All() ([]*Outcome, error) {
	var out []*Outcome
	for _, e := range Catalog {
		if e.Live {
			continue
		}
		o, err := e.Run(DefaultSamples, DefaultSeed)
		if err != nil {
			return out, err
		}
		out = append(out, o)
	}
	return out, nil
}
