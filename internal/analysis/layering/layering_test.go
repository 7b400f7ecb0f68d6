package layering_test

import (
	"sort"
	"strings"
	"testing"

	"indulgence/internal/analysis/analysistest"
	"indulgence/internal/analysis/layering"
)

func TestLayering(t *testing.T) {
	analysistest.Run(t, "testdata", layering.Analyzer,
		"indulgence/internal/sched",    // planted upward imports
		"indulgence/internal/nonesuch", // not in the table
	)
}

// TestTableIsDAG pins the table itself: every allowed import must name
// another table entry, and the allowed-import relation must be acyclic
// — the table cannot drift into documenting an impossible layering.
func TestTableIsDAG(t *testing.T) {
	for pkg, allowed := range layering.Table {
		for _, imp := range allowed {
			if _, ok := layering.Table[imp]; !ok {
				t.Errorf("table entry %q allows unknown package %q", pkg, imp)
			}
			if imp == pkg {
				t.Errorf("table entry %q allows importing itself", pkg)
			}
		}
	}

	// Kahn's algorithm: if some packages can never be peeled off, the
	// remaining subgraph contains a cycle.
	indeg := make(map[string]int, len(layering.Table))
	for pkg := range layering.Table {
		indeg[pkg] = len(layering.Table[pkg])
	}
	dependents := make(map[string][]string)
	for pkg, allowed := range layering.Table {
		for _, imp := range allowed {
			dependents[imp] = append(dependents[imp], pkg)
		}
	}
	var queue []string
	for pkg, d := range indeg {
		if d == 0 {
			queue = append(queue, pkg)
		}
	}
	sort.Strings(queue)
	peeled := 0
	for len(queue) > 0 {
		pkg := queue[0]
		queue = queue[1:]
		peeled++
		for _, dep := range dependents[pkg] {
			if indeg[dep]--; indeg[dep] == 0 {
				queue = append(queue, dep)
			}
		}
	}
	if peeled != len(layering.Table) {
		var stuck []string
		for pkg, d := range indeg {
			if d > 0 {
				stuck = append(stuck, pkg)
			}
		}
		sort.Strings(stuck)
		t.Errorf("layering table contains an import cycle among: %s", strings.Join(stuck, ", "))
	}
}

// TestMetricsIsALeaf pins the introspection plane's place in the DAG:
// metrics may import no internal package (every instrumented layer
// names it, so any dependency it grew would ripple upward through the
// whole live stack), and each instrumented layer is allowed to report
// into it.
func TestMetricsIsALeaf(t *testing.T) {
	if allowed := layering.Table["metrics"]; len(allowed) != 0 {
		t.Errorf("metrics must stay a leaf, but allows %v", allowed)
	}
	for _, pkg := range []string{"fd", "transport", "journal", "adapt", "runtime",
		"service", "chaos"} {
		found := false
		for _, imp := range layering.Table[pkg] {
			if imp == "metrics" {
				found = true
			}
		}
		if !found {
			t.Errorf("%s is not allowed to import metrics", pkg)
		}
	}
}

// TestNothingImportsExperiments pins the rule's encoding: no entry may
// list experiments as an allowed import.
func TestNothingImportsExperiments(t *testing.T) {
	for pkg, allowed := range layering.Table {
		for _, imp := range allowed {
			if imp == "experiments" {
				t.Errorf("table entry %q allows importing experiments", pkg)
			}
		}
	}
}
