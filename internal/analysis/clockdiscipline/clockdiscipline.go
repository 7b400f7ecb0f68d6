// Package clockdiscipline enforces the live stack's injected-clock
// contract: packages on the service path never read wall time from the
// time package directly, because the chaos harness must be able to run
// the exact production code on a virtual clock (docs/ARCHITECTURE.md,
// "The clock contract"). One stray time.Now is one schedule the
// virtual-time sweeps can neither compress nor reproduce.
package clockdiscipline

import (
	"go/ast"
	"strings"

	"indulgence/internal/analysis"
	"indulgence/internal/analysis/directive"
)

// Directive is the waiver name: //indulgence:wallclock <reason> on or
// above the offending line exempts a genuinely OS-bound call site
// (socket deadlines, wall-time wedge watchdogs).
const Directive = "wallclock"

// livePrefixes are the packages bound by the contract: everything the
// chaos harness runs on a virtual clock. internal/chaos/clock itself is
// exempt below — it is the one place wall time is allowed to enter,
// as the Real implementation of the Clock interface.
var livePrefixes = []string{
	"internal/fd",
	"internal/runtime",
	"internal/service",
	"internal/transport",
	"internal/adapt",
	"internal/chaos",
}

// forbidden are the time-package members that read or schedule against
// the process's wall clock. Since and Until are included: each is a
// disguised time.Now read. Purely arithmetic members (Duration,
// ParseDuration, Unix, Date, ...) stay allowed.
var forbidden = map[string]string{
	"Now":       "clock.Clock.Now",
	"Sleep":     "a clock.Clock timer",
	"After":     "clock.Clock.NewTimer",
	"AfterFunc": "clock.Clock.AfterFunc",
	"NewTimer":  "clock.Clock.NewTimer",
	"NewTicker": "clock.Clock.NewTicker",
	"Tick":      "clock.Clock.NewTicker",
	"Since":     "clock.Clock.Since",
	"Until":     "clock.Clock.Now arithmetic",
}

// Analyzer is the clockdiscipline rule.
var Analyzer = &analysis.Analyzer{
	Name: "clockdiscipline",
	Doc: "forbid direct time.Now/Sleep/After/AfterFunc/NewTimer/NewTicker/Tick/Since/Until " +
		"in live-stack packages; time comes from an injected clock.Clock " +
		"(waive OS-bound sites with //indulgence:wallclock <reason>)",
	Run: run,
}

// applies reports whether the contract binds pkgpath.
func applies(pkgpath string) bool {
	if strings.HasSuffix(pkgpath, "internal/chaos/clock") {
		return false
	}
	for _, p := range livePrefixes {
		if strings.HasSuffix(pkgpath, p) || strings.Contains(pkgpath, p+"/") {
			return true
		}
	}
	return false
}

func run(pass *analysis.Pass) error {
	if !applies(pass.PkgPath()) {
		return nil
	}
	waivers := directive.Collect(pass, Directive)
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			replacement, bad := forbidden[sel.Sel.Name]
			if !bad || pass.ImportedPackage(sel.X) != "time" {
				return true
			}
			// References count as much as calls: `cfg.Now = time.Now`
			// smuggles the wall clock past the injection point exactly
			// like calling it would.
			if _, ok := waivers.Waived(pass.Fset, sel.Pos()); ok {
				return true
			}
			pass.Reportf(sel.Pos(),
				"direct time.%s in a live-stack package: take time from the injected clock (%s), "+
					"or waive an OS-bound site with //indulgence:wallclock <reason>",
				sel.Sel.Name, replacement)
			return true
		})
	}
	return nil
}
