// Package lowerbound mechanizes Sect. 2 of the paper (Proposition 1: every
// consensus algorithm in ES has a synchronous run deciding no earlier than
// round t+2). It provides
//
//   - an exhaustive explorer over *serial runs* — synchronous runs with at
//     most one crash per round, exactly the run family the proof
//     quantifies over — reporting the worst-case global decision round of
//     any algorithm, with the crash/receiver branching of the proof
//     (missing-receiver sets as prefixes) or fully exhaustive subsets;
//   - valency analysis of partial runs (the Lemma 2–5 apparatus); and
//   - the executable Claim 5.1 constructions (runs s1, s0, a2, a1, a0 of
//     Fig. 1) with their indistinguishability assertions (construction.go).
//
// The explorer splits the serial-run tree at the first crash's round and
// process into independent branches and explores them on a bounded worker
// pool (Config.Workers), each worker owning its own reusable simulator and
// schedule scratch. Per-branch aggregates are merged in the serial
// depth-first order, so every result — including worst-case witnesses —
// is identical for every worker count.
//
// Every serial run is visited, but one is simulated only when no run
// simulated before it has the same outcome. Two exact equivalences decide
// that: crashes placed after a run ended change nothing it executed, and
// missing sets that differ only in receivers already dead give the same
// execution (see worker.place).
package lowerbound

import (
	"errors"
	"fmt"
	"slices"

	"indulgence/internal/check"
	"indulgence/internal/model"
	"indulgence/internal/pool"
	"indulgence/internal/sched"
	"indulgence/internal/sim"
)

// SubsetMode selects how the explorer enumerates the receivers that miss a
// crashing process's last messages.
type SubsetMode int

const (
	// PrefixSubsets enumerates missing-receiver sets that are prefixes of
	// the identity order — the n cases the proofs of Lemma 4/5 use
	// (including "nobody misses it" and "everybody misses it").
	PrefixSubsets SubsetMode = iota + 1
	// AllSubsets enumerates all 2^(n−1) receiver subsets. Exhaustive but
	// exponential; use for small n.
	AllSubsets
)

// Config parameterizes an exploration.
type Config struct {
	// N and T describe the system.
	N, T int
	// Synchrony is the model to validate the runs against (serial runs
	// are legal in both SCS and ES).
	Synchrony model.Synchrony
	// Factory builds the algorithm under test.
	Factory model.Factory
	// Proposals is the initial configuration (Proposals[id-1]).
	Proposals []model.Value
	// Horizon caps each simulated run. A run not fully decided by the
	// horizon is reported with decision round Horizon+1 and the Undecided
	// flag. Default: 3t+8 rounds past the largest scheduled round.
	Horizon model.Round
	// FirstCrashRound is the first round in which the explorer may place
	// a crash (default 1). Combined with Base it explores extensions of a
	// fixed prefix, as in the "synchronous after round k" experiments.
	FirstCrashRound model.Round
	// MaxCrashRound is the last round in which a crash may be placed
	// (default 2t+2, past the worst baseline's deciding rounds).
	MaxCrashRound model.Round
	// MaxCrashes caps the number of crashes: 0 selects the default T;
	// a negative value explores the crash-free run only.
	MaxCrashes int
	// Mode selects the receiver-subset enumeration (default
	// PrefixSubsets).
	Mode SubsetMode
	// Workers bounds the explorer's parallelism: 0 selects one worker per
	// runnable CPU (pool.Workers), 1 explores on one goroutine. Exploration
	// results are independent of the worker count (witnesses included).
	Workers int
	// Base, if non-nil, is a schedule prefix (an asynchronous prefix, or
	// a serial partial run that may already contain crashes); the
	// explorer superimposes further crashes on clones of it. Its N, T and
	// GSR are adopted; processes already crashed in Base are excluded
	// from the enumeration, and Base's crashes count against the budget.
	// Set FirstCrashRound past the prefix so extensions leave it intact.
	Base *sched.Schedule
}

func (c *Config) defaults() error {
	if c.Base != nil {
		c.N, c.T = c.Base.N(), c.Base.T()
	}
	if c.N < 2 || c.T < 0 {
		return fmt.Errorf("lowerbound: invalid n=%d t=%d", c.N, c.T)
	}
	if len(c.Proposals) != c.N {
		return fmt.Errorf("lowerbound: %d proposals for n=%d", len(c.Proposals), c.N)
	}
	if c.Factory == nil {
		return errors.New("lowerbound: nil factory")
	}
	budget := c.T
	if c.Base != nil {
		budget -= c.Base.Crashes()
		if budget < 0 {
			return fmt.Errorf("lowerbound: base schedule already has %d > t crashes", c.Base.Crashes())
		}
	}
	switch {
	case c.MaxCrashes == 0 || c.MaxCrashes > budget:
		c.MaxCrashes = budget
	case c.MaxCrashes < 0:
		c.MaxCrashes = 0
	}
	if c.FirstCrashRound == 0 {
		c.FirstCrashRound = 1
	}
	if c.MaxCrashRound == 0 {
		c.MaxCrashRound = c.FirstCrashRound + model.Round(2*c.T+1)
	}
	if c.Mode == 0 {
		c.Mode = PrefixSubsets
	}
	if c.Horizon == 0 {
		base := c.MaxCrashRound
		if c.Base != nil && c.Base.MaxScheduledRound() > base {
			base = c.Base.MaxScheduledRound()
		}
		c.Horizon = base + model.Round(3*c.T+8)
	}
	return nil
}

// resolvedHorizon returns the horizon an exploration of cfg will use —
// the explicit Horizon, or its default. Entry points whose visitors need
// the horizon (to label undecided runs as Horizon+1) call it on their own
// copy, leaving cfg itself untouched for foldSerialRuns' defaulting.
func resolvedHorizon(cfg Config) (model.Round, error) {
	if err := cfg.defaults(); err != nil {
		return 0, err
	}
	return cfg.Horizon, nil
}

// Result reports an exploration's findings.
type Result struct {
	// WorstRound is the largest global decision round over all explored
	// runs (Horizon+1 for a run that did not fully decide in time).
	WorstRound model.Round
	// Witness is a schedule attaining WorstRound.
	Witness *sched.Schedule
	// WitnessEarliest is, within the witness run, the earliest decision
	// round of any process.
	WitnessEarliest model.Round
	// Runs is the number of runs explored.
	Runs int
	// Undecided reports that some run had not fully decided by the
	// horizon.
	Undecided bool
	// PropertyViolation is the first consensus violation observed, if
	// any (the explorer doubles as a model checker for validity and
	// uniform agreement over the whole serial-run family).
	PropertyViolation error
	// ViolationWitness is the schedule of the violating run.
	ViolationWitness *sched.Schedule
}

// Explore runs the algorithm on every serial run in the configured family
// and reports the worst-case global decision round, a witness schedule and
// any consensus violation.
func Explore(cfg Config) (*Result, error) {
	// An undecided run must be recorded as Horizon+1 even when the caller
	// left Horizon at its zero default.
	horizon, err := resolvedHorizon(cfg)
	if err != nil {
		return nil, err
	}
	return foldSerialRuns(cfg,
		func() *Result { return &Result{} },
		func(res *Result, s *sched.Schedule, r *sim.Result) {
			res.Runs++
			gdr, decided := r.GlobalDecisionRound()
			if !r.AllAliveDecided || !decided {
				gdr = horizon + 1
				res.Undecided = true
			}
			if gdr > res.WorstRound {
				res.WorstRound = gdr
				res.Witness = s.Clone()
				if e, ok := check.EarliestDecisionRound(r); ok {
					res.WitnessEarliest = e
				} else {
					res.WitnessEarliest = 0
				}
			}
			if res.PropertyViolation == nil {
				rep := check.Consensus(r, cfg.Proposals)
				if !rep.Validity || !rep.Agreement {
					res.PropertyViolation = rep.Err()
					res.ViolationWitness = s.Clone()
				}
			}
		},
		func(dst, src *Result) {
			dst.Runs += src.Runs
			dst.Undecided = dst.Undecided || src.Undecided
			if src.WorstRound > dst.WorstRound {
				dst.WorstRound = src.WorstRound
				dst.Witness = src.Witness
				dst.WitnessEarliest = src.WitnessEarliest
			}
			if dst.PropertyViolation == nil {
				dst.PropertyViolation = src.PropertyViolation
				dst.ViolationWitness = src.ViolationWitness
			}
		})
}

// DecisionValues returns the set of values decided across all serial runs
// in the configured family — the valency of the (possibly empty) prefix.
func DecisionValues(cfg Config) (map[model.Value]struct{}, error) {
	return foldSerialRuns(cfg,
		func() map[model.Value]struct{} { return make(map[model.Value]struct{}) },
		func(vals map[model.Value]struct{}, _ *sched.Schedule, r *sim.Result) {
			for _, d := range r.Decisions {
				if d.Decided() {
					vals[d.Value] = struct{}{}
				}
			}
		},
		func(dst, src map[model.Value]struct{}) {
			for v := range src {
				dst[v] = struct{}{}
			}
		})
}

// Distribution returns the histogram of global decision rounds over every
// serial run in the configured family (key Horizon+1 counts runs that did
// not fully decide in time). Where Explore reports the worst case, the
// distribution exposes the whole profile — the average-case face of the
// price of indulgence.
func Distribution(cfg Config) (map[model.Round]int, error) {
	// Undecided runs are keyed by Horizon+1, resolved like in Explore.
	horizon, err := resolvedHorizon(cfg)
	if err != nil {
		return nil, err
	}
	return foldSerialRuns(cfg,
		func() map[model.Round]int { return make(map[model.Round]int) },
		func(hist map[model.Round]int, _ *sched.Schedule, r *sim.Result) {
			gdr, decided := r.GlobalDecisionRound()
			if !decided || !r.AllAliveDecided {
				gdr = horizon + 1
			}
			hist[gdr]++
		},
		func(dst, src map[model.Round]int) {
			for r, c := range src {
				dst[r] += c
			}
		})
}

// crash is one crash placement: proc crashes in round round and exactly
// the processes in missing never receive its last message.
type crash struct {
	round   model.Round
	proc    model.ProcessID
	missing model.PIDSet
}

// branch is one independent subtree of the serial-run family: every run
// whose first crash is proc's, in round round, with any missing set.
// proc == 0 denotes the crash-free run (a single leaf).
type branch struct {
	round model.Round
	proc  model.ProcessID
}

// explorer holds the read-only state shared by all workers of one
// exploration.
type explorer struct {
	cfg  Config
	miss [][]model.PIDSet // miss[p-1]: candidate missing-receiver sets of p
	// root is the outcome of the crash-free run, simulated before any
	// branch: every branch extends it.
	root *sim.Result
}

// missingSets enumerates, in the order mode fixes, the candidate sets of
// receivers that miss a crashing process p's last messages in a system of
// n processes. The explorer and the bivalent search both branch on it.
func missingSets(n int, p model.ProcessID, mode SubsetMode) []model.PIDSet {
	others := make([]model.ProcessID, 0, n-1)
	for q := model.ProcessID(1); int(q) <= n; q++ {
		if q != p {
			others = append(others, q)
		}
	}
	if mode == PrefixSubsets {
		sets := make([]model.PIDSet, 0, n)
		var cur model.PIDSet
		sets = append(sets, cur)
		for _, q := range others {
			cur.Add(q)
			sets = append(sets, cur)
		}
		return sets
	}
	total := 1 << len(others)
	sets := make([]model.PIDSet, 0, total)
	for mask := 0; mask < total; mask++ {
		var set model.PIDSet
		for i, q := range others {
			if mask&(1<<i) != 0 {
				set.Add(q)
			}
		}
		sets = append(sets, set)
	}
	return sets
}

// eligible reports whether p may crash (it is not already crashed in the
// base prefix).
func (e *explorer) eligible(p model.ProcessID) bool {
	return e.cfg.Base == nil || e.cfg.Base.Correct(p)
}

// branches enumerates the top-level branches in serial depth-first order:
// the crash-free leaf first, then first-crash placements from the latest
// round down to FirstCrashRound (the recursion visits the crash-free
// continuation of each round before the crashes of that round, so later
// first-crash rounds precede earlier ones in the depth-first order),
// within a round by process id.
func (e *explorer) branches() []branch {
	out := []branch{{}}
	if e.cfg.MaxCrashes <= 0 {
		return out
	}
	for k := e.cfg.MaxCrashRound; k >= e.cfg.FirstCrashRound; k-- {
		for p := model.ProcessID(1); int(p) <= e.cfg.N; p++ {
			if e.eligible(p) {
				out = append(out, branch{round: k, proc: p})
			}
		}
	}
	return out
}

// worker executes branches serially: it owns a reusable simulator, a
// prototype schedule, a scratch schedule rebuilt per run, and the
// outcomes of the current depth-first path that later runs may reuse.
type worker struct {
	e       *explorer
	sim     sim.Simulator
	proto   *sched.Schedule
	scratch *sched.Schedule
	chosen  []crash
	// runs[d] is the outcome of the run whose crashes are chosen[:d]. That
	// run is the first leaf below chosen[:d], so it is set before any
	// extension of chosen[:d] is visited.
	runs []*sim.Result
	// memo[d][i] is the outcome of the run that adds the i-th candidate
	// missing set of the crash placed at depth d, within the current
	// (process, round) of that depth.
	memo [][]*sim.Result
	// same, when set, is the outcome every leaf below the current node
	// reuses: their added crashes all fall after its run ended. next, when
	// set, is the outcome of the next leaf: an earlier placement that
	// differs only in losses to dead receivers already computed it.
	same, next *sim.Result
	// shared is same with the visited leaf's crash rounds in crashRounds.
	shared      sim.Result
	crashRounds []model.Round
	visit       func(*sched.Schedule, *sim.Result)
}

func (e *explorer) newWorker() *worker {
	proto := e.cfg.Base
	if proto == nil {
		proto = sched.New(e.cfg.N, e.cfg.T)
	}
	w := &worker{
		e:           e,
		proto:       proto,
		scratch:     sched.New(e.cfg.N, e.cfg.T),
		chosen:      make([]crash, 0, e.cfg.MaxCrashes),
		runs:        make([]*sim.Result, e.cfg.MaxCrashes+1),
		memo:        make([][]*sim.Result, e.cfg.MaxCrashes),
		crashRounds: make([]model.Round, e.cfg.N),
	}
	for d := range w.memo {
		w.memo[d] = make([]*sim.Result, len(e.miss[0]))
	}
	return w
}

// runBranch explores one branch in depth-first order.
func (w *worker) runBranch(b branch) error {
	w.chosen = w.chosen[:0]
	w.runs[0] = w.e.root
	w.same, w.next = nil, nil
	if b.proc == 0 {
		w.next = w.e.root
		return w.leaf()
	}
	return w.place(b.round, b.proc)
}

// schedule builds the schedule of the run given by the chosen crashes in
// the scratch schedule.
func (w *worker) schedule() *sched.Schedule {
	s := w.scratch.CopyFrom(w.proto)
	for _, c := range w.chosen {
		receivers := model.FullPIDSet(w.e.cfg.N).Diff(c.missing)
		receivers.Remove(c.proc)
		s.CrashWithReceivers(c.proc, c.round, receivers)
	}
	return s
}

// simConfig is the simulator configuration of the run on s.
func (e *explorer) simConfig(s *sched.Schedule) sim.Config {
	return sim.Config{
		Synchrony:      e.cfg.Synchrony,
		Schedule:       s,
		Proposals:      e.cfg.Proposals,
		Factory:        e.cfg.Factory,
		MaxRounds:      e.cfg.Horizon,
		SkipTrace:      true,
		SkipValidation: true,
	}
}

// simulate runs the algorithm on s.
func (w *worker) simulate(s *sched.Schedule) (*sim.Result, error) {
	r, err := w.sim.Run(w.e.simConfig(s))
	if err != nil {
		return nil, fmt.Errorf("lowerbound: simulate %v: %w", s, err)
	}
	return r, nil
}

// leaf hands the run given by the chosen crashes to the visitor,
// simulating it only when no outcome already computed is its own. The
// schedule and the result are scratch state reused for the next run.
func (w *worker) leaf() error {
	s := w.schedule()
	if w.same != nil {
		for i := range w.crashRounds {
			w.crashRounds[i], _ = s.CrashRound(model.ProcessID(i + 1))
		}
		w.shared = *w.same
		w.shared.CrashRounds = w.crashRounds
		w.visit(s, &w.shared)
		return nil
	}
	d := len(w.chosen)
	if w.next != nil {
		w.runs[d], w.next = w.next, nil
	} else {
		r, err := w.simulate(s)
		if err != nil {
			return err
		}
		w.runs[d] = r
	}
	w.visit(s, w.runs[d])
	return nil
}

// descend continues the crash placement from round r onwards: no crash in
// round r, or one crash of any not-yet-crashed process with each candidate
// missing set.
func (w *worker) descend(r model.Round) error {
	if len(w.chosen) == w.e.cfg.MaxCrashes || r > w.e.cfg.MaxCrashRound {
		return w.leaf()
	}
	// No crash in round r. Its first leaf is the run of chosen itself.
	if err := w.descend(r + 1); err != nil {
		return err
	}
	// One crash in round r: any process not yet crashed (in the base
	// prefix or in this branch).
	for p := model.ProcessID(1); int(p) <= w.e.cfg.N; p++ {
		if !w.e.eligible(p) || slices.ContainsFunc(w.chosen, func(c crash) bool { return c.proc == p }) {
			continue
		}
		if err := w.place(r, p); err != nil {
			return err
		}
	}
	return nil
}

// place explores every extension of chosen by a crash of p in round r, in
// missing-set order. The run of chosen itself has been visited, so its
// outcome is runs[len(chosen)].
//
// Two equivalences spare simulations. A crash in a round after the run of
// chosen ended changes nothing that run executed: sim.Run stops at the same
// round, and sends, deliveries and completions up to it do not depend on a
// later crash; only the crash rounds differ. And two missing sets that
// differ only in processes that do not complete round r give the same
// execution: a message to a dead receiver is counted as sent and delivered
// to no one either way.
func (w *worker) place(r model.Round, p model.ProcessID) error {
	d := len(w.chosen)
	outer := w.same
	if outer == nil && r > w.runs[d].Rounds {
		w.same = w.runs[d]
	}
	var live model.PIDSet
	if w.same == nil {
		live = w.completers(r)
	}
	miss, memo := w.e.miss[p-1], w.memo[d]
	for i, m := range miss {
		if w.same == nil {
			for j := range i {
				if miss[j]&live == m&live {
					w.next = memo[j]
					break
				}
			}
		}
		w.chosen = append(w.chosen, crash{round: r, proc: p, missing: m})
		err := w.descend(r + 1)
		w.chosen = w.chosen[:d]
		if err != nil {
			return err
		}
		memo[i] = w.runs[d+1]
	}
	w.same = outer
	return nil
}

// completers returns the processes that complete round r in the run of
// chosen: crashed neither in the base prefix by round r nor in the branch,
// whose crashes all fall before r.
func (w *worker) completers(r model.Round) model.PIDSet {
	var live model.PIDSet
	for q := model.ProcessID(1); int(q) <= w.e.cfg.N; q++ {
		if w.proto.CompletesRound(q, r) {
			live.Add(q)
		}
	}
	for _, c := range w.chosen {
		live.Remove(c.proc)
	}
	return live
}

// foldSerialRuns enumerates every serial run of the family, feeding each
// run to visit on some aggregate P, and merges the per-branch aggregates
// in serial depth-first order. visit observes runs in the exact serial
// order within each branch, and merge is applied in branch order, so the
// fold is deterministic for every worker count. Every run is visited with
// its own schedule, but a run is simulated only when no run simulated
// before it in its branch (or the crash-free run) has the same outcome.
// The schedule and the result handed to visit are scratch state, valid
// during the call only, and the result may be shared between runs: treat
// both as read-only, and clone the schedule to keep it.
func foldSerialRuns[P any](cfg Config, newP func() P, visit func(P, *sched.Schedule, *sim.Result), merge func(dst, src P)) (P, error) {
	var zero P
	if err := cfg.defaults(); err != nil {
		return zero, err
	}
	e := &explorer{cfg: cfg, miss: make([][]model.PIDSet, cfg.N)}
	for p := model.ProcessID(1); int(p) <= cfg.N; p++ {
		e.miss[p-1] = missingSets(cfg.N, p, cfg.Mode)
	}
	branches := e.branches()
	first := e.newWorker()
	root, err := first.simulate(first.schedule())
	if err != nil {
		return zero, err
	}
	e.root = root

	partials := make([]P, len(branches))
	errs := make([]error, len(branches))
	pool.ForEach(cfg.Workers, len(branches), func() func(int) {
		w := e.newWorker()
		return func(bi int) {
			p := newP()
			partials[bi] = p
			w.visit = func(s *sched.Schedule, r *sim.Result) { visit(p, s, r) }
			errs[bi] = w.runBranch(branches[bi])
		}
	})
	for _, err := range errs {
		if err != nil {
			return zero, err
		}
	}
	acc := newP()
	for _, p := range partials {
		merge(acc, p)
	}
	return acc, nil
}
