package experiments_test

import (
	"flag"
	"os"
	"strings"
	"testing"

	"indulgence/internal/experiments"
)

// updateTables rewrites testdata/tables.golden from the current tree.
// Only a change that means to move a table cell (and says which and
// why) may regenerate it; a refactor must pass against the committed
// file.
var updateTables = flag.Bool("update-tables", false, "rewrite testdata/tables.golden")

const tablesGolden = "testdata/tables.golden"

// TestAllExperiments is the repository's headline integration test: every
// simulator-backed experiment must reproduce its paper claim, and render
// byte for byte what the commit that wrote the golden rendered.
func TestAllExperiments(t *testing.T) {
	outs, err := experiments.All()
	if err != nil {
		t.Fatalf("experiments: %v", err)
	}
	wantIDs := []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E10", "A1", "A2", "A3", "A4"}
	if len(outs) != len(wantIDs) {
		t.Fatalf("got %d outcomes, want %d", len(outs), len(wantIDs))
	}
	for i, o := range outs {
		if o.ID != wantIDs[i] {
			t.Errorf("outcome %d is %s, want %s", i, o.ID, wantIDs[i])
		}
		if !o.OK() {
			t.Errorf("%s failed:\n%s", o.ID, strings.Join(o.Failures, "\n"))
		}
		if len(o.Tables) == 0 {
			t.Errorf("%s produced no tables", o.ID)
		}
		if !strings.Contains(o.String(), o.ID) {
			t.Errorf("%s renders without its id", o.ID)
		}
	}

	var b strings.Builder
	for _, o := range outs {
		b.WriteString(o.String())
	}
	got := b.String()
	if *updateTables {
		if err := os.WriteFile(tablesGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(tablesGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	wantLines := strings.Split(string(want), "\n")
	for i, line := range strings.Split(got, "\n") {
		if i >= len(wantLines) || line != wantLines[i] {
			t.Fatalf("tables line %d: got %q, golden %q", i+1, line, wantLines[min(i, len(wantLines)-1)])
		}
	}
	t.Fatalf("tables: golden has %d lines, got %d", len(wantLines), strings.Count(got, "\n")+1)
}

// TestE9Live exercises the live-runtime experiment (separate from All so a
// loaded machine's timing noise is easy to attribute).
func TestE9Live(t *testing.T) {
	o, err := experiments.E9LiveRuntime()
	if err != nil {
		t.Fatalf("E9: %v", err)
	}
	if !o.OK() {
		t.Errorf("E9 failed:\n%s", strings.Join(o.Failures, "\n"))
	}
}
