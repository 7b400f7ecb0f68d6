package lowerbound

import (
	"fmt"

	"indulgence/internal/model"
	"indulgence/internal/sched"
)

// Valency classifies a configuration by the decision values reachable in
// its serial extensions — the notion behind Lemmas 2–5 of the paper.
type Valency int

const (
	// ZeroValent: every serial extension decides 0.
	ZeroValent Valency = iota + 1
	// OneValent: every serial extension decides 1.
	OneValent
	// Bivalent: both decision values are reachable.
	Bivalent
	// Undecided: no serial extension decided within the horizon (only
	// possible for broken algorithms or too-small horizons).
	Undecided
)

// String implements fmt.Stringer.
func (v Valency) String() string {
	switch v {
	case ZeroValent:
		return "0-valent"
	case OneValent:
		return "1-valent"
	case Bivalent:
		return "bivalent"
	case Undecided:
		return "undecided"
	default:
		return fmt.Sprintf("Valency(%d)", int(v))
	}
}

// ClassifyInitial computes the valency of the initial configuration given
// by cfg.Proposals for a binary consensus algorithm: it enumerates every
// serial run from that configuration and classifies the reachable decision
// values. Proposals must be drawn from {0, 1}.
func ClassifyInitial(cfg Config) (Valency, error) {
	for _, v := range cfg.Proposals {
		if v != 0 && v != 1 {
			return 0, fmt.Errorf("lowerbound: binary valency requires proposals in {0,1}, got %d", v)
		}
	}
	vals, err := DecisionValues(cfg)
	if err != nil {
		return 0, err
	}
	_, zero := vals[0]
	_, one := vals[1]
	switch {
	case zero && one:
		return Bivalent, nil
	case zero:
		return ZeroValent, nil
	case one:
		return OneValent, nil
	default:
		return Undecided, nil
	}
}

// FindBivalentInitial replays the Lemma 3 argument mechanically: it walks
// the chain of initial configurations C_0..C_n (C_i: the first i processes
// propose 1, the rest 0) and returns the first bivalent one. ok is false
// if every configuration in the chain is univalent — which, per Lemma 3,
// cannot happen for a correct consensus algorithm with t ≥ 1.
func FindBivalentInitial(cfg Config) (proposals []model.Value, ok bool, err error) {
	for i := 0; i <= cfg.N; i++ {
		props := make([]model.Value, cfg.N)
		for j := 0; j < cfg.N; j++ {
			if j < i {
				props[j] = 1
			}
		}
		c := cfg
		c.Proposals = props
		v, cerr := ClassifyInitial(c)
		if cerr != nil {
			return nil, false, cerr
		}
		if v == Bivalent {
			return props, true, nil
		}
	}
	return nil, false, nil
}

// ClassifyPartial computes the valency of a serial partial run of a binary
// consensus algorithm: prefix fixes rounds 1..prefixRounds (including any
// crashes it schedules), and the serial extensions place at most one
// further crash per round from prefixRounds+1 on. It is the executable
// form of the partial-run valency of Lemmas 2, 4 and 5.
func ClassifyPartial(cfg Config, prefix *sched.Schedule, prefixRounds model.Round) (Valency, error) {
	for p := model.ProcessID(1); int(p) <= prefix.N(); p++ {
		if r, crashed := prefix.CrashRound(p); crashed && r > prefixRounds {
			return 0, fmt.Errorf("lowerbound: prefix crashes p%d at round %d beyond the prefix length %d", p, r, prefixRounds)
		}
	}
	c := cfg
	c.Base = prefix
	c.FirstCrashRound = prefixRounds + 1
	if c.MaxCrashRound != 0 && c.MaxCrashRound <= prefixRounds {
		return 0, fmt.Errorf("lowerbound: MaxCrashRound %d inside the prefix", c.MaxCrashRound)
	}
	return ClassifyInitial(c)
}

// BivalentSearch is the outcome of FindBivalentPartial.
type BivalentSearch struct {
	// Witness is a bivalent serial partial run of the requested depth.
	Witness *sched.Schedule
	// Explored counts the partial runs classified.
	Explored int
}

// FindBivalentPartial mechanizes the induction of Lemma 4: starting from
// the initial configuration given by cfg.Proposals, it extends bivalent
// serial partial runs one round at a time — choosing no crash, or one
// crash with a receiver subset per cfg.Mode — and returns a bivalent
// serial partial run of exactly `depth` rounds if one exists within the
// kept frontier.
//
// Lemma 4 guarantees a bivalent (t−1)-round serial partial run for the
// hypothetical algorithm that decides at t+1; measured on the real
// algorithms of this repository the same depth is attained — one crash per
// round can keep the critical value confined until the crash budget runs
// out — while t-round partial runs come out univalent, which is exactly
// the Lemma 2 landscape in which the proof's indistinguishability step
// (Claim 5.1, bridging to non-synchronous runs) becomes necessary to push
// the bound one round further.
//
// The frontier is capped at keep partial runs per level (default 8) to
// bound the search; ok=false means no bivalent run was found within the
// cap, not a proof that none exists (use AllSubsets and a large keep for
// exhaustiveness at small n).
func FindBivalentPartial(cfg Config, depth model.Round, keep int) (*BivalentSearch, bool, error) {
	if err := cfg.defaults(); err != nil {
		return nil, false, err
	}
	if keep <= 0 {
		keep = 8
	}
	search := &BivalentSearch{}

	classify := func(prefix *sched.Schedule, rounds model.Round) (Valency, error) {
		search.Explored++
		sub := cfg
		sub.Base = nil
		return ClassifyPartial(sub, prefix, rounds)
	}

	empty := sched.New(cfg.N, cfg.T)
	v, err := classify(empty, 0)
	if err != nil {
		return nil, false, err
	}
	if v != Bivalent {
		return search, false, nil
	}
	frontier := []*sched.Schedule{empty}
	for r := model.Round(1); r <= depth; r++ {
		var next []*sched.Schedule
		for _, prefix := range frontier {
			for _, ext := range oneRoundExtensions(cfg, prefix, r) {
				if len(next) >= keep {
					break
				}
				v, err := classify(ext, r)
				if err != nil {
					return nil, false, err
				}
				if v == Bivalent {
					next = append(next, ext)
				}
			}
			if len(next) >= keep {
				break
			}
		}
		if len(next) == 0 {
			return search, false, nil
		}
		frontier = next
	}
	search.Witness = frontier[0]
	return search, true, nil
}

// oneRoundExtensions enumerates the serial one-round extensions of a
// partial run: no crash, or one crash of a not-yet-crashed process with a
// receiver subset per cfg.Mode.
func oneRoundExtensions(cfg Config, prefix *sched.Schedule, r model.Round) []*sched.Schedule {
	out := []*sched.Schedule{prefix.Clone()}
	if prefix.Crashes() >= cfg.T {
		return out
	}
	full := model.FullPIDSet(cfg.N)
	for p := model.ProcessID(1); int(p) <= cfg.N; p++ {
		if !prefix.Correct(p) {
			continue
		}
		for _, miss := range missingSets(cfg.N, p, cfg.Mode) {
			ext := prefix.Clone()
			receivers := full.Diff(miss)
			receivers.Remove(p)
			ext.CrashWithReceivers(p, r, receivers)
			out = append(out, ext)
		}
	}
	return out
}
