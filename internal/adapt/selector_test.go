package adapt_test

import (
	"testing"

	"indulgence/internal/adapt"
	"indulgence/internal/core"
)

// TestSelectorFallbackLadder scripts a suspicion trace and pins the
// exact A_f+2 → A_diamondS → A_t+2 transitions — the selector's whole
// contract, step by step.
func TestSelectorFallbackLadder(t *testing.T) {
	s := adapt.NewSelector(4, 1, 3) // t < n/3: the fast rung is A_f+2
	if got := s.Pick().Name; got != core.AfPlus2Name {
		t.Fatalf("fresh selector at %q, want %q", got, core.AfPlus2Name)
	}

	steps := []struct {
		name string
		o    adapt.Outcome
		want string
	}{
		// Clean decisions hold the fast level.
		{"clean-1", adapt.Outcome{}, core.AfPlus2Name},
		{"clean-2", adapt.Outcome{}, core.AfPlus2Name},
		// One suspicion demotes exactly one level: A_f+2 → A_◇S.
		{"suspect-1", adapt.Outcome{Suspicions: 2}, core.DiamondSName},
		// Another demotes to the safe floor: A_◇S → A_t+2.
		{"suspect-2", adapt.Outcome{Suspicions: 1}, core.AtPlus2Name},
		// Further suspicion holds the floor.
		{"suspect-3", adapt.Outcome{Suspicions: 1}, core.AtPlus2Name},
		// Three clean decisions (ClimbAfter=3) climb one level.
		{"clean-3", adapt.Outcome{}, core.AtPlus2Name},
		{"clean-4", adapt.Outcome{}, core.AtPlus2Name},
		{"clean-5", adapt.Outcome{}, core.DiamondSName},
		// Three more reach the fast level again.
		{"clean-6", adapt.Outcome{}, core.DiamondSName},
		{"clean-7", adapt.Outcome{}, core.DiamondSName},
		{"clean-8", adapt.Outcome{}, core.AfPlus2Name},
		// A missed decision drops straight past A_◇S to the safe floor.
		{"failed", adapt.Outcome{Failed: true}, core.AtPlus2Name},
		// A suspicion right after resets the clean streak at the floor.
		{"suspect-4", adapt.Outcome{Suspicions: 3}, core.AtPlus2Name},
		{"clean-9", adapt.Outcome{}, core.AtPlus2Name},
		{"clean-10", adapt.Outcome{}, core.AtPlus2Name},
		{"clean-11", adapt.Outcome{}, core.DiamondSName},
	}
	for i, st := range steps {
		s.Report(st.o)
		if got := s.Pick().Name; got != st.want {
			t.Fatalf("step %d (%s): at %q, want %q", i, st.name, got, st.want)
		}
	}
}

// TestSelectorWaitPolicies checks that every rung carries the receive
// discipline its algorithm is live under.
func TestSelectorWaitPolicies(t *testing.T) {
	s := adapt.NewSelector(4, 1, 1)
	if c := s.Pick(); c.WaitPolicy != core.WaitUnsuspected {
		t.Fatalf("A_f+2 rung has policy %v", c.WaitPolicy)
	}
	s.Report(adapt.Outcome{Suspicions: 1})
	if c := s.Pick(); c.Name != core.DiamondSName || c.WaitPolicy != core.WaitQuorum {
		t.Fatalf("◇S rung = %q/%v, want %q under wait-quorum", c.Name, c.WaitPolicy, core.DiamondSName)
	}
	s.Report(adapt.Outcome{Suspicions: 1})
	if c := s.Pick(); c.Name != core.AtPlus2Name || c.WaitPolicy != core.WaitUnsuspected {
		t.Fatalf("safe rung = %q/%v", c.Name, c.WaitPolicy)
	}
}

// TestSelectorResilienceFallback: with t ≥ n/3 the fast rung cannot be
// A_f+2; the failure-free-fast A_t+2 variant takes it, and every rung's
// factory must actually construct for the system it was built for.
func TestSelectorResilienceFallback(t *testing.T) {
	s := adapt.NewSelector(5, 2, 8) // 3t ≥ n: A_f+2 is out of envelope
	if got := s.Pick().Name; got != core.AtPlus2Name+"+ff" {
		t.Fatalf("fast rung for t ≥ n/3 is %q, want %q", got, core.AtPlus2Name+"+ff")
	}
	for _, nt := range []struct{ n, t int }{{4, 1}, {5, 2}, {7, 2}} {
		s := adapt.NewSelector(nt.n, nt.t, 1)
		for level := 0; level < 3; level++ {
			if name := adapt.ProbeName(s.Pick().Factory, nt.n, nt.t); name == "" {
				t.Fatalf("n=%d t=%d level %d: factory refuses its own system", nt.n, nt.t, level)
			}
			s.Report(adapt.Outcome{Suspicions: 1})
		}
	}
}
