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
// pool (Config.Workers), each worker owning its own reusable simulator,
// algorithm instances (reset between runs, see model.Resetter) and
// schedule scratch. Per-branch aggregates are merged in the serial
// depth-first order, so every result — including worst-case witnesses —
// is identical for every worker count.
//
// Every serial run is counted, but the explorer visits and simulates one
// run per class of runs with one execution, and the visit carries the
// class's size. Two exact equivalences form the classes: crashes placed
// after a run ended change nothing it executed (worker.visitClass), and
// missing sets that differ only in receivers already dead give the same
// execution, subtree for subtree (worker.place).
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
	// Runs is the number of serial runs explored: every run of the
	// family, each counted once.
	Runs int
	// Visits is the number of classes of runs with one execution that the
	// explorer visited, one representative each; Simulated is the number
	// of runs it simulated. Both are at most Runs.
	Visits, Simulated int
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
	res, cov, err := foldSerialRuns(cfg,
		func() *Result { return &Result{} },
		func(res *Result, s *sched.Schedule, r *sim.Result, runs int) {
			res.Runs += runs
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
	if err != nil {
		return nil, err
	}
	res.Visits, res.Simulated = cov.visits, cov.simulated
	return res, nil
}

// DecisionValues returns the set of values decided across all serial runs
// in the configured family — the valency of the (possibly empty) prefix.
func DecisionValues(cfg Config) (map[model.Value]struct{}, error) {
	vals, _, err := foldSerialRuns(cfg,
		func() map[model.Value]struct{} { return make(map[model.Value]struct{}) },
		func(vals map[model.Value]struct{}, _ *sched.Schedule, r *sim.Result, _ int) {
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
	return vals, err
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
	hist, _, err := foldSerialRuns(cfg,
		func() map[model.Round]int { return make(map[model.Round]int) },
		func(hist map[model.Round]int, _ *sched.Schedule, r *sim.Result, runs int) {
			gdr, decided := r.GlobalDecisionRound()
			if !decided || !r.AllAliveDecided {
				gdr = horizon + 1
			}
			hist[gdr] += runs
		},
		func(dst, src map[model.Round]int) {
			for r, c := range src {
				dst[r] += c
			}
		})
	return hist, err
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
// proc == 0 denotes the crash-free run's class: the crash-free run and
// every run whose crashes all fall after it ended.
type branch struct {
	round model.Round
	proc  model.ProcessID
}

// explorer holds the read-only state shared by all workers of one
// exploration.
type explorer struct {
	cfg  Config
	miss [][]model.PIDSet // miss[p-1]: candidate missing-receiver sets of p
	// free is the number of processes the enumeration may crash.
	free int
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

// leaves counts the serial runs that extend a run by crashes in rounds
// from..MaxCrashRound, the run itself included: at most budget more
// crashes, one per round, each of one of free processes with any of its
// candidate missing sets. Choosing j of the rounds, the j processes in
// order and a missing set for each gives
// Σ_j C(rounds, j) · free!/(free−j)! · sets^j.
func (e *explorer) leaves(from model.Round, budget, free int) int {
	rounds := max(int(e.cfg.MaxCrashRound-from+1), 0)
	sets := len(e.miss[0])
	total, term := 0, 1
	for j := 0; j <= min(budget, free, rounds); j++ {
		total += term
		// C(rounds, j+1) = C(rounds, j)·(rounds−j)/(j+1), exactly.
		term = term * (rounds - j) / (j + 1) * (free - j) * sets
	}
	return total
}

// branches enumerates the top-level branches in serial depth-first order:
// the crash-free run's class first, then first-crash placements from the
// latest round the crash-free run executed down to FirstCrashRound (the
// depth-first order visits the crash-free continuation of each round
// before the crashes of that round, so later first-crash rounds precede
// earlier ones), within a round by process id.
func (e *explorer) branches() []branch {
	out := []branch{{}}
	if e.cfg.MaxCrashes <= 0 {
		return out
	}
	for k := min(e.cfg.MaxCrashRound, e.root.Rounds); k >= e.cfg.FirstCrashRound; k-- {
		for p := model.ProcessID(1); int(p) <= e.cfg.N; p++ {
			if e.eligible(p) {
				out = append(out, branch{round: k, proc: p})
			}
		}
	}
	return out
}

// reuse wraps the configured factory for one worker. The first run builds
// each process's instance; every later run resets it to the new proposal
// when it is a model.Resetter, and builds a fresh one otherwise. Every run
// of an exploration has its N and T, so a process's context never changes,
// and a worker simulates one run at a time, so no run still drives an
// instance when it is reset.
type reuse struct {
	factory model.Factory
	algs    []model.Algorithm // algs[i]: process i+1's instance
}

func (u *reuse) build(ctx model.ProcessContext, proposal model.Value) (model.Algorithm, error) {
	a := u.algs[ctx.Self-1]
	if r, ok := a.(model.Resetter); ok {
		r.Reset(proposal)
		return a, nil
	}
	a, err := u.factory(ctx, proposal)
	if err != nil {
		return nil, err
	}
	u.algs[ctx.Self-1] = a
	return a, nil
}

// worker executes branches serially: it owns a reusable simulator, the
// algorithm instances it resets between runs, a prototype schedule and a
// scratch schedule rebuilt per run.
type worker struct {
	e       *explorer
	sim     sim.Simulator
	factory model.Factory
	proto   *sched.Schedule
	scratch *sched.Schedule
	chosen  []crash
	visit   func(*sched.Schedule, *sim.Result, int)
	// visits and simulated count the classes visited and the runs
	// simulated.
	visits, simulated int
}

func (e *explorer) newWorker() *worker {
	proto := e.cfg.Base
	if proto == nil {
		proto = sched.New(e.cfg.N, e.cfg.T)
	}
	u := &reuse{factory: e.cfg.Factory, algs: make([]model.Algorithm, e.cfg.N)}
	return &worker{
		e:       e,
		factory: u.build,
		proto:   proto,
		scratch: sched.New(e.cfg.N, e.cfg.T),
		chosen:  make([]crash, 0, e.cfg.MaxCrashes),
	}
}

// runBranch explores one branch in depth-first order.
func (w *worker) runBranch(b branch) error {
	w.chosen = w.chosen[:0]
	if b.proc == 0 {
		w.visitClass(w.schedule(), w.e.root, w.e.cfg.FirstCrashRound, 1)
		return nil
	}
	return w.place(b.round, b.proc, 1)
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

// simulate runs the algorithm on s with the worker's reset instances.
func (w *worker) simulate(s *sched.Schedule) (*sim.Result, error) {
	cfg := w.e.simConfig(s)
	cfg.Factory = w.factory
	r, err := w.sim.Run(cfg)
	if err != nil {
		return nil, fmt.Errorf("lowerbound: simulate %v: %w", s, err)
	}
	w.simulated++
	return r, nil
}

// visitClass hands the run of chosen, with schedule s and outcome run, to
// the visitor once for its whole class among the runs that extend chosen
// by crashes in rounds r and later: the run itself and every extension
// whose crashes all fall after run ended. Such a crash changes nothing
// the run executed: sim.Run stops at the same round, and sends,
// deliveries and completions up to it do not depend on a later crash; only
// the crash rounds differ, and no visitor reads them. The class weight
// times each such run's own weight is the visit's weight.
func (w *worker) visitClass(s *sched.Schedule, run *sim.Result, r model.Round, weight int) {
	d := len(w.chosen)
	from := max(r, run.Rounds+1)
	w.visits++
	w.visit(s, run, weight*w.e.leaves(from, w.e.cfg.MaxCrashes-d, w.e.free-d))
}

// descend visits every run that extends chosen by crashes in rounds r and
// later, in serial depth-first order: first the class of the run of chosen
// itself (schedule s, outcome run), which holds every crash placed after
// run ended, then one crash of any not-yet-crashed process in each round
// that run executed, latest round first.
func (w *worker) descend(r model.Round, s *sched.Schedule, run *sim.Result, weight int) error {
	w.visitClass(s, run, r, weight)
	if len(w.chosen) == w.e.cfg.MaxCrashes {
		return nil
	}
	for k := min(w.e.cfg.MaxCrashRound, run.Rounds); k >= r; k-- {
		for p := model.ProcessID(1); int(p) <= w.e.cfg.N; p++ {
			if !w.e.eligible(p) || slices.ContainsFunc(w.chosen, func(c crash) bool { return c.proc == p }) {
				continue
			}
			if err := w.place(k, p, weight); err != nil {
				return err
			}
		}
	}
	return nil
}

// place explores every extension of chosen by a crash of p in round r, in
// missing-set order, each run counted weight times.
//
// Two missing sets that differ only in processes that do not complete
// round r give the same execution, and so do their extensions, leaf for
// leaf: a message to a dead receiver is counted as sent and delivered to no
// one either way. So only the first set of each such class is explored,
// with its weight multiplied by the class size; it precedes the others in
// serial order, so every first member of a class of equal outcomes is
// still visited first.
func (w *worker) place(r model.Round, p model.ProcessID, weight int) error {
	d := len(w.chosen)
	live := w.completers(r)
	miss := w.e.miss[p-1]
	for i, m := range miss {
		size := 0
		for j, other := range miss {
			if other&live != m&live {
				continue
			}
			if j < i {
				size = 0
				break
			}
			size++
		}
		if size == 0 {
			continue
		}
		w.chosen = append(w.chosen, crash{round: r, proc: p, missing: m})
		s := w.schedule()
		run, err := w.simulate(s)
		if err == nil {
			err = w.descend(r+1, s, run, weight*size)
		}
		w.chosen = w.chosen[:d]
		if err != nil {
			return err
		}
	}
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

// coverage reports how a fold covered its family.
type coverage struct {
	// visits is the number of visitor calls: one per class of runs with
	// one outcome.
	visits int
	// simulated is the number of runs simulated.
	simulated int
}

// foldSerialRuns enumerates every serial run of the family, feeding each
// class of runs with one outcome to visit on some aggregate P, with the
// number of runs in the class, and merges the per-branch aggregates in
// serial depth-first order. A class is visited with the schedule of its
// first member in serial order, and classes are visited in the order of
// their first members within each branch; merge is applied in branch
// order, so the fold is deterministic for every worker count. A run is
// simulated only for a class whose outcome no earlier simulation gave.
// The schedule and the result handed to visit are scratch state, valid
// during the call only: treat both as read-only, and clone the schedule to
// keep it.
func foldSerialRuns[P any](cfg Config, newP func() P, visit func(acc P, s *sched.Schedule, r *sim.Result, runs int), merge func(dst, src P)) (P, coverage, error) {
	var zero P
	if err := cfg.defaults(); err != nil {
		return zero, coverage{}, err
	}
	e := &explorer{cfg: cfg, miss: make([][]model.PIDSet, cfg.N)}
	for p := model.ProcessID(1); int(p) <= cfg.N; p++ {
		e.miss[p-1] = missingSets(cfg.N, p, cfg.Mode)
		if e.eligible(p) {
			e.free++
		}
	}
	first := e.newWorker()
	root, err := first.simulate(first.schedule())
	if err != nil {
		return zero, coverage{}, err
	}
	e.root = root
	branches := e.branches()

	partials := make([]P, len(branches))
	covered := make([]coverage, len(branches))
	errs := make([]error, len(branches))
	pool.ForEach(cfg.Workers, len(branches), func() func(int) {
		w := e.newWorker()
		return func(bi int) {
			p := newP()
			partials[bi] = p
			w.visit = func(s *sched.Schedule, r *sim.Result, runs int) { visit(p, s, r, runs) }
			w.visits, w.simulated = 0, 0
			errs[bi] = w.runBranch(branches[bi])
			covered[bi] = coverage{visits: w.visits, simulated: w.simulated}
		}
	})
	for _, err := range errs {
		if err != nil {
			return zero, coverage{}, err
		}
	}
	acc, total := newP(), coverage{simulated: first.simulated}
	for bi, p := range partials {
		merge(acc, p)
		total.visits += covered[bi].visits
		total.simulated += covered[bi].simulated
	}
	return acc, total, nil
}
