// Package check verifies the consensus properties of Sect. 1.3 of the
// paper: validity (a decided value was proposed), uniform agreement (no
// two processes decide differently, whether or not they later crash), and
// termination (every correct process decides). Consensus checks recorded
// simulator runs; Instance checks the live decisions of one runtime
// cluster or service instance — the service audits every resolved instance
// with it; Replay cross-checks a decision journal against live
// observations, extending uniform agreement across process lifetimes.
// The package also extracts the round-complexity measurements the
// experiments report.
package check

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"

	"indulgence/internal/model"
	"indulgence/internal/sim"
	"indulgence/internal/wire"
)

// ErrViolation is wrapped by Report.Err when a property is violated.
var ErrViolation = errors.New("check: consensus property violated")

// Report is the outcome of checking one run.
type Report struct {
	// Validity holds iff every decided value was proposed by some
	// process.
	Validity bool
	// Agreement holds iff no two processes decided different values
	// (uniform agreement: crashed deciders count).
	Agreement bool
	// Termination holds iff every process that never crashed decided by
	// the end of the run. Meaningful only for runs executed to
	// quiescence.
	Termination bool
	// GlobalDecisionRound is the paper's global decision round: the
	// largest decision round among deciders (0 if nobody decided).
	GlobalDecisionRound model.Round
	// Violations lists human-readable descriptions of each violation.
	Violations []string
}

// OK reports whether all three properties hold.
func (r Report) OK() bool { return r.Validity && r.Agreement && r.Termination }

// Err returns nil if all properties hold, and an error wrapping
// ErrViolation describing every violation otherwise.
func (r Report) Err() error {
	if r.OK() {
		return nil
	}
	return fmt.Errorf("%w: %s", ErrViolation, strings.Join(r.Violations, "; "))
}

// Consensus checks validity, uniform agreement and termination of one run
// against the proposals it started from.
func Consensus(res *sim.Result, proposals []model.Value) Report {
	rep := checkDecisions(proposals, len(res.Decisions),
		func(i int) (model.Value, bool) { return res.Decisions[i].Value, res.Decisions[i].Decided() },
		func(i int) bool { return res.CrashRounds[i] != 0 })
	for _, d := range res.Decisions {
		rep.GlobalDecisionRound = max(rep.GlobalDecisionRound, d.Round)
	}
	return rep
}

// Instance checks the consensus properties over the live decisions of one
// consensus instance, as collected by the runtime or the service layer:
// decisions[i] is the decision of process i+1 (⊥ if it never decided).
// Validity and uniform agreement are checked exactly as for simulated
// runs; termination requires every process outside crashed to have
// decided. GlobalDecisionRound is not populated — live rounds live in the
// runtime's NodeResults, not here.
func Instance(decisions []model.OptValue, proposals []model.Value, crashed model.PIDSet) Report {
	return checkDecisions(proposals, len(decisions),
		func(i int) (model.Value, bool) { return decisions[i].Get() },
		func(i int) bool { return crashed.Has(model.ProcessID(i + 1)) })
}

// checkDecisions checks validity, uniform agreement and termination over
// the decisions of processes 1..n: decision(i) is process i+1's decision,
// if it took one, and crashed(i) reports whether it crashed, which
// exempts it from termination. Validity scans the proposals, at most
// one per process.
func checkDecisions(proposals []model.Value, n int, decision func(i int) (model.Value, bool), crashed func(i int) bool) Report {
	rep := Report{Validity: true, Agreement: true, Termination: true}
	var (
		firstValue   model.Value
		firstDecider model.ProcessID
		haveDecision bool
	)
	for i := 0; i < n; i++ {
		p := model.ProcessID(i + 1)
		v, ok := decision(i)
		if !ok {
			if !crashed(i) {
				rep.Termination = false
				rep.Violations = append(rep.Violations,
					fmt.Sprintf("termination: correct process p%d never decided", p))
			}
			continue
		}
		if !slices.Contains(proposals, v) {
			rep.Validity = false
			rep.Violations = append(rep.Violations,
				fmt.Sprintf("validity: p%d decided unproposed value %d", p, v))
		}
		if !haveDecision {
			firstValue, firstDecider, haveDecision = v, p, true
		} else if v != firstValue {
			rep.Agreement = false
			rep.Violations = append(rep.Violations,
				fmt.Sprintf("agreement: p%d decided %d but p%d decided %d", firstDecider, firstValue, p, v))
		}
	}
	return rep
}

// Replay cross-checks a decision journal against the live decisions
// observed across one or more process lifetimes of the service: records
// is the journal's decisions in append order (as produced by
// journal.Replay), starts its instance-start claims, and live maps
// instance ID to the value clients saw that instance resolve to. It
// extends uniform agreement across crashes — an instance must never be
// on record with two values, whether the second record comes from the
// same lifetime (a duplicate append), a later one (a re-run the
// frontier should have prevented), or a live client. Start claims
// extend the audit to algorithm choices: an instance claimed under two
// different non-empty algorithm tags was launched twice with different
// protocols — either a frontier violation across restarts or a
// misconfigured cluster whose members disagree on the algorithm —
// and is flagged as an agreement violation (untagged claims are
// compatible with everything; they predate the tag or chose not to
// record one). Group tags extend it to journals written by the
// multi-group runtimes of earlier builds: every instance ID belonged to
// exactly one consensus group (their strided allocation made the spaces
// disjoint), so an instance claimed or decided under two different
// groups — across the claims and records of every journal fed to one
// Replay call — means two groups ran the same instance ID and is flagged
// as an agreement violation (records of one-group services carry group
// 0, the compatibility group, and conflict only with records of other
// groups). Class tags are audited the same way: two records of one
// instance under different non-zero SLO classes mean two conflicting
// decision events were journaled — an agreement violation — and a class
// outside wire's encodable range [0, MaxClassValue] is a validity
// violation. Class 0 is compatible with every class, as an untagged
// claim is with every algorithm: a record's class is the journaling
// service's own batch's, and when the journals of several members of
// one cluster are audited together a member that joined the slot with
// nothing classed aboard says 0 where the initiator says its class.
// (Two members initiating one slot with differently classed batches
// would still be flagged; classes do not travel on the wire, so a
// cluster that classes traffic on several members audits them apart.)
// Structurally impossible records (non-positive round or
// batch) are flagged as validity violations: no decision can legally
// produce them, so their presence means the log was not written by a
// correct service. Termination is not assessable from a journal (a
// record exists only once an instance terminates) and is reported as
// holding. GlobalDecisionRound is the largest journaled decision round.
func Replay(records []wire.DecisionRecord, starts []wire.StartRecord, live map[uint64]model.Value) Report {
	rep := Report{Validity: true, Agreement: true, Termination: true}

	groups := make(map[uint64]uint64, len(starts)+len(records))
	checkGroup := func(instance, group uint64) {
		if prev, ok := groups[instance]; !ok {
			groups[instance] = group
		} else if prev != group {
			rep.Agreement = false
			rep.Violations = append(rep.Violations,
				fmt.Sprintf("agreement: instance %d recorded under group %d and again under group %d",
					instance, prev, group))
		}
	}

	algs := make(map[uint64]string, len(starts))
	for _, s := range starts {
		checkGroup(s.Instance, s.Group)
		if s.Alg == "" {
			continue
		}
		if prev, ok := algs[s.Instance]; ok && prev != s.Alg {
			rep.Agreement = false
			rep.Violations = append(rep.Violations,
				fmt.Sprintf("agreement: instance %d claimed for algorithm %s and again for %s",
					s.Instance, prev, s.Alg))
			continue
		}
		algs[s.Instance] = s.Alg
	}

	seen := make(map[uint64]wire.DecisionRecord, len(records))
	for _, r := range records {
		checkGroup(r.Instance, r.Group)
		if r.Round < 1 || r.Batch < 1 {
			rep.Validity = false
			rep.Violations = append(rep.Violations,
				fmt.Sprintf("journal: instance %d has an impossible record (round %d, batch %d)",
					r.Instance, r.Round, r.Batch))
		}
		if r.Class < 0 || r.Class > wire.MaxClassValue {
			rep.Validity = false
			rep.Violations = append(rep.Violations,
				fmt.Sprintf("journal: instance %d has an unencodable class %d", r.Instance, r.Class))
		}
		if prev, ok := seen[r.Instance]; ok {
			if prev.Value != r.Value {
				rep.Agreement = false
				rep.Violations = append(rep.Violations,
					fmt.Sprintf("agreement: instance %d journaled as %d and again as %d",
						r.Instance, prev.Value, r.Value))
			}
			switch {
			case prev.Class == 0:
				// The first classed record is the one later ones must match.
				prev.Class = r.Class
				seen[r.Instance] = prev
			case r.Class != 0 && r.Class != prev.Class:
				rep.Agreement = false
				rep.Violations = append(rep.Violations,
					fmt.Sprintf("agreement: instance %d journaled at class %d and again at class %d",
						r.Instance, prev.Class, r.Class))
			}
			continue
		}
		seen[r.Instance] = r
		if r.Round > rep.GlobalDecisionRound {
			rep.GlobalDecisionRound = r.Round
		}
	}

	instances := make([]uint64, 0, len(live))
	for inst := range live {
		instances = append(instances, inst)
	}
	sort.Slice(instances, func(i, j int) bool { return instances[i] < instances[j] })
	for _, inst := range instances {
		if rec, ok := seen[inst]; ok && rec.Value != live[inst] {
			rep.Agreement = false
			rep.Violations = append(rep.Violations,
				fmt.Sprintf("agreement: instance %d journaled %d but resolved %d live",
					inst, rec.Value, live[inst]))
		}
	}
	return rep
}

// DecisionRounds returns each process's decision round (0 = undecided).
func DecisionRounds(res *sim.Result) []model.Round {
	out := make([]model.Round, len(res.Decisions))
	for i, d := range res.Decisions {
		out[i] = d.Round
	}
	return out
}

// EarliestDecisionRound returns the smallest decision round among deciders
// (the local decision time of the fastest process). ok is false if nobody
// decided.
func EarliestDecisionRound(res *sim.Result) (round model.Round, ok bool) {
	for _, d := range res.Decisions {
		if !d.Decided() {
			continue
		}
		if !ok || d.Round < round {
			round, ok = d.Round, true
		}
	}
	return round, ok
}
