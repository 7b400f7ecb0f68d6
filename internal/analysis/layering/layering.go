// Package layering enforces the repository's import DAG — the
// "Layering (who may import whom)" section of docs/ARCHITECTURE.md —
// mechanically. Table is the machine-readable form of that section:
// each internal package lists exactly the internal packages it may
// import, lower layers never name upper ones, and nothing below the
// root façade imports experiments. A package missing from the table is
// reported too, so growing the tree forces a deliberate layering
// decision instead of silently inheriting one.
package layering

import (
	"sort"
	"strings"

	"indulgence/internal/analysis"
)

// Table is the layering contract: internal package → the internal
// packages its non-test code may import. It mirrors (and is kept in
// lockstep with) docs/ARCHITECTURE.md's layering diagram; changing a
// layer means changing this table in the same commit, which is the
// point — the DAG is reviewed, never drifted.
var Table = map[string][]string{
	// Leaves: these import no other internal package. clock is the time
	// source injected everywhere, so everything may depend on it and it
	// may depend on nothing; wire's only dependencies are the payload
	// family it encodes; metrics is the instrumentation leaf the live
	// stack reports into, so like clock it sits below everything and
	// names nothing.
	"model":       {},
	"pool":        {},
	"stats":       {},
	"metrics":     {},
	"chaos/clock": {},

	"payload":  {"model"},
	"wire":     {"model", "payload"},
	"trace":    {"model", "wire"},
	"sched":    {"model"},
	"workload": {"model", "wire"},

	"sim":        {"model", "payload", "pool", "sched", "trace"},
	"fd":         {"chaos/clock", "metrics", "model", "trace"},
	"baseline":   {"fd", "model", "payload"},
	"core":       {"baseline", "fd", "model", "payload", "trace"},
	"check":      {"model", "sim", "wire"},
	"lowerbound": {"check", "model", "pool", "sched", "sim", "trace"},

	"adapt":     {"core", "metrics", "model"},
	"journal":   {"metrics", "model", "stats", "wire"},
	"transport": {"chaos/clock", "metrics", "model", "wire"},
	"runtime":   {"chaos/clock", "core", "fd", "metrics", "model", "payload", "transport", "wire"},
	"service": {"adapt", "chaos/clock", "check", "core", "fd", "journal", "metrics",
		"model", "runtime", "stats", "transport", "wire"},

	// chaos composes the whole live stack into the seeded sweep and
	// trace record/replay harness; experiments sits above everything
	// but chaos' CLI-facing siblings. Nothing may import experiments —
	// no table entry lists it, which is the rule's encoding.
	"chaos": {"adapt", "chaos/clock", "check", "core", "journal", "metrics",
		"model", "runtime", "service", "transport", "wire", "workload"},
	"experiments": {"adapt", "baseline", "chaos", "check", "core", "fd",
		"lowerbound", "model", "runtime", "sched", "service", "sim",
		"stats", "wire", "workload"},

	// The static-analysis suite itself: pure stdlib plus its own
	// framework, below everything it checks.
	"analysis":                 {},
	"analysis/directive":       {"analysis"},
	"analysis/unitchecker":     {"analysis"},
	"analysis/analysistest":    {"analysis"},
	"analysis/clockdiscipline": {"analysis", "analysis/directive"},
	"analysis/seedroll":        {"analysis", "analysis/directive"},
	"analysis/layering":        {"analysis"},
	"analysis/wiremarker":      {"analysis"},
	"analysis/taggedtimer":     {"analysis", "analysis/directive"},
}

// Analyzer is the layering rule.
var Analyzer = &analysis.Analyzer{
	Name: "layering",
	Doc: "enforce the ARCHITECTURE.md import DAG over internal packages: each may " +
		"import only the internal packages its layering.Table entry lists",
	Run: run,
}

// rel returns the table key for pkgpath ("" when pkgpath is outside the
// internal tree).
func rel(pkgpath string) string {
	if i := strings.Index(pkgpath, "internal/"); i >= 0 {
		return pkgpath[i+len("internal/"):]
	}
	return ""
}

func run(pass *analysis.Pass) error {
	self := rel(pass.PkgPath())
	if self == "" {
		return nil
	}
	// External test packages (pkg_test) are all test files, and test
	// files are exempt below; don't demand table entries for them.
	if strings.HasSuffix(self, "_test") {
		return nil
	}
	allowed, known := Table[self]
	if !known {
		pass.Reportf(pass.Files[0].Package,
			"internal package %q is not in the layering table: add it to "+
				"internal/analysis/layering.Table (and docs/ARCHITECTURE.md) with the "+
				"imports it is allowed", self)
		return nil
	}
	allowedSet := make(map[string]bool, len(allowed))
	for _, a := range allowed {
		allowedSet[a] = true
	}
	for _, f := range pass.Files {
		// Test files may reach across layers to assert on internals;
		// the DAG binds what ships.
		if pass.InTestFile(f.Pos()) {
			continue
		}
		for _, imp := range f.Imports {
			target := rel(strings.Trim(imp.Path.Value, `"`))
			if target == "" || target == self || allowedSet[target] {
				continue
			}
			want := append([]string(nil), allowed...)
			sort.Strings(want)
			pass.Reportf(imp.Pos(),
				"layering violation: %s may not import %s (allowed: %s) — "+
					"see internal/analysis/layering.Table",
				self, target, strings.Join(want, ", "))
		}
	}
	return nil
}
