package sched

import (
	//indulgence:prng RandomOpts.Rng is threaded from the caller; schedule corpora pin its sequence
	"math/rand"

	"indulgence/internal/model"
)

// FailureFree returns the failure-free synchronous schedule: no crashes, no
// delays, GSR = 1. It is the paper's "well-behaved" run (Sect. 5.2).
func FailureFree(n, t int) *Schedule { return New(n, t) }

// RandomOpts parameterizes the random schedule generators. The zero value
// selects sensible defaults.
type RandomOpts struct {
	// Rng supplies randomness. Required.
	Rng *rand.Rand
	// MaxCrashes caps the number of crashing processes (default t).
	MaxCrashes int
	// MaxCrashRound is the latest round in which a crash may occur
	// (default 2t+3, past every algorithm's synchronous decision round).
	MaxCrashRound model.Round
	// DelayCrashSends, when true, lets a crashing sender's last messages
	// be delayed instead of lost (legal in ES even in synchronous runs,
	// footnote 5 of the paper; illegal in SCS).
	DelayCrashSends bool
}

func (o *RandomOpts) defaults(t int) {
	if o.MaxCrashes == 0 {
		o.MaxCrashes = t
	}
	if o.MaxCrashes > t {
		o.MaxCrashes = t
	}
	if o.MaxCrashRound == 0 {
		o.MaxCrashRound = model.Round(2*t + 3)
	}
}

// RandomSynchronous returns a uniformly sampled synchronous schedule
// (GSR = 1): up to MaxCrashes processes crash at random rounds, each losing
// its last messages to a random subset of receivers (or, with
// DelayCrashSends, delaying some of them). The result always validates
// under ES; it validates under SCS when DelayCrashSends is false.
func RandomSynchronous(n, t int, o RandomOpts) *Schedule {
	o.defaults(t)
	rng := o.Rng
	s := New(n, t)
	crashers := rng.Perm(n)[:rng.Intn(o.MaxCrashes+1)]
	for _, idx := range crashers {
		p := model.ProcessID(idx + 1)
		r := model.Round(1 + rng.Intn(int(o.MaxCrashRound)))
		s.Crash(p, r)
		for q := model.ProcessID(1); int(q) <= n; q++ {
			if q == p {
				continue
			}
			switch {
			case rng.Intn(2) == 0:
				// delivered on time: leave the default fate.
			case o.DelayCrashSends && rng.Intn(3) == 0:
				s.Delay(r, p, q, r+1+model.Round(rng.Intn(3)))
			default:
				s.Drop(r, p, q)
			}
		}
	}
	return s
}

// RandomES returns a random eventually synchronous schedule with the given
// GSR: rounds before the GSR suffer random delays and (between faulty
// endpoints) losses, subject to the t-resilience and reliable-channels
// axioms; behaviour from the GSR on is synchronous. Crashes (up to
// MaxCrashes) occur at random rounds in [1, MaxCrashRound]. The result
// always validates under ES.
func RandomES(n, t int, gsr model.Round, o RandomOpts) *Schedule {
	o.defaults(t)
	rng := o.Rng
	s := New(n, t, WithGSR(gsr))
	crashers := rng.Perm(n)[:rng.Intn(o.MaxCrashes+1)]
	for _, idx := range crashers {
		p := model.ProcessID(idx + 1)
		s.Crash(p, model.Round(1+rng.Intn(int(o.MaxCrashRound))))
	}

	quorum := n - t
	// One round's delays are drawn receiver by receiver and applied in
	// (from, to) order, so that the listed fates grow by appending: a
	// stable counting sort by sender keeps each sender's receivers
	// ascending. At most t senders are late to each receiver.
	drawn := make([]listedFate, 0, n*t)
	bySender := make([]listedFate, n*t)
	offset := make([]int, n)
	for r := model.Round(1); r < gsr; r++ {
		drawn = drawn[:0]
		for p := model.ProcessID(1); int(p) <= n; p++ {
			if !s.CompletesRound(p, r) {
				continue
			}
			senders := make([]model.ProcessID, 0, n)
			for q := model.ProcessID(1); int(q) <= n; q++ {
				if q != p && s.SendsIn(q, r) {
					senders = append(senders, q)
				}
			}
			// Pick quorum−1 senders (besides p itself) heard on time; the
			// rest are delayed or, with a faulty endpoint, possibly lost.
			rng.Shuffle(len(senders), func(i, j int) { senders[i], senders[j] = senders[j], senders[i] })
			heard := quorum - 1
			if heard > len(senders) {
				heard = len(senders)
			}
			for i, q := range senders {
				if i < heard {
					continue // on time by default
				}
				lossOK := !s.Correct(q) || !s.Correct(p)
				switch {
				case rng.Intn(3) == 0:
					// on time anyway
				case lossOK && rng.Intn(3) == 0:
					s.Drop(r, q, p)
				default:
					span := int(gsr-r) + 2
					drawn = append(drawn, listedFate{
						key:  fateKey{round: r, from: q, to: p},
						fate: Fate{Kind: Delayed, DeliverRound: r + 1 + model.Round(rng.Intn(span))},
					})
				}
			}
		}
		clear(offset)
		for _, d := range drawn {
			offset[d.key.from-1]++
		}
		next := 0
		for q, c := range offset {
			offset[q], next = next, next+c
		}
		for _, d := range drawn {
			bySender[offset[d.key.from-1]] = d
			offset[d.key.from-1]++
		}
		for _, d := range bySender[:len(drawn)] {
			s.SetFate(d.key.round, d.key.from, d.key.to, d.fate)
		}
	}

	// Crashing senders at or after the GSR lose their last messages to a
	// random subset of receivers.
	for i, cr := range s.crash {
		if cr == 0 || cr < gsr {
			continue
		}
		p := model.ProcessID(i + 1)
		for q := model.ProcessID(1); int(q) <= n; q++ {
			if q != p && rng.Intn(2) == 0 {
				s.Drop(cr, p, q)
			}
		}
	}
	return s
}

// KillCoordinators returns the synchronous schedule that silently crashes
// the coordinator of each of the first t phases of a rotating-coordinator
// algorithm with the given number of rounds per phase (coordinator of phase
// r is process ((r−1) mod n) + 1). It realizes the worst-case synchronous
// runs of the Hurfin–Raynal baseline (2 rounds/phase ⇒ global decision at
// 2t+2) and of the Chandra–Toueg-style underlying consensus.
func KillCoordinators(n, t, roundsPerPhase int) *Schedule {
	s := New(n, t)
	for i := 1; i <= t; i++ {
		p := model.ProcessID((i-1)%n + 1)
		first := model.Round((i-1)*roundsPerPhase + 1)
		s.CrashSilent(p, first)
	}
	return s
}

// DelayedSenderPrefix returns the deterministic eventually synchronous
// schedule in which, for every round of the asynchronous prefix 1..k, the
// victim's messages to all other processes are delayed to round k+1 (the
// victim is falsely suspected throughout the prefix) and behaviour is
// synchronous from round k+1 on (GSR = k+1). Requires t ≥ 1 so that
// t-resilience holds while the victim goes unheard. It is the base
// schedule of the "synchronous after round k" experiments (Sect. 6).
func DelayedSenderPrefix(n, t int, k model.Round, victim model.ProcessID) *Schedule {
	s := New(n, t, WithGSR(k+1))
	for r := model.Round(1); r <= k; r++ {
		for q := model.ProcessID(1); int(q) <= n; q++ {
			if q != victim {
				s.Delay(r, victim, q, k+1)
			}
		}
	}
	return s
}

// The divergence prefixes below are the adversarial eventually synchronous
// prefixes of the Sect. 6 eventual-fast-decision experiments, for the
// paper's canonical t < n/3 configuration n = 3t+1. Each blocks estimate
// convergence of its algorithm family for the whole asynchronous prefix
// 1..k (behaviour is synchronous from the GSR k+1), with a two-valued
// initial configuration that is reproduced exactly round over round; every
// deprived receiver still obtains at least n−t same-round messages, so
// t-resilience holds. The stability arguments are spelled out on the
// proposal helpers.

// DivergencePrefixFlood blocks A_{f+2} (with DivergenceProposalsFlood):
// in every prefix round, the messages of senders {p1..pt} to receivers
// {p_{t+2}..pn} are delayed to round k+1.
func DivergencePrefixFlood(t int, k model.Round) *Schedule {
	n := 3*t + 1
	s := New(n, t, WithGSR(k+1))
	for r := model.Round(1); r <= k; r++ {
		for from := model.ProcessID(1); int(from) <= t; from++ {
			for to := model.ProcessID(t + 2); int(to) <= n; to++ {
				s.Delay(r, from, to, k+1)
			}
		}
	}
	return s
}

// DivergenceProposalsFlood returns the initial configuration that keeps
// A_{f+2} estimates diverged under DivergencePrefixFlood(t, ·): value 1 at
// processes p1..p_{t+1} and value 2 at the remaining 2t processes.
//
// Stability: a full-view process's msgSet window {p1..p_{2t+1}} holds t+1
// ones and t twos — mixed (no decision) with the unique (n−2t)-plurality 1
// — while a deprived process sees exactly {p_{t+1}..pn}, i.e. one 1 and 2t
// twos — mixed with the unique plurality 2. The pattern is knife-edge on
// purpose: after stabilization, crashing a single low-value holder flips
// some window to a 2-plurality, so each of the f post-GSR crashes buys the
// adversary exactly one extra round, attaining Lemma 15's k+f+2.
func DivergenceProposalsFlood(t int) []model.Value {
	n := 3*t + 1
	out := make([]model.Value, n)
	for i := range out {
		if i < t+1 {
			out[i] = 1
		} else {
			out[i] = 2
		}
	}
	return out
}

// DivergencePrefixLeader blocks AMR (with DivergenceProposalsLeader): in
// every prefix round, the messages of the t senders {p1, p3, p4, ...,
// p_{t+1}} to the t+1 receivers {p2} ∪ {p_{2t+2}..pn} are delayed to round
// k+1.
func DivergencePrefixLeader(t int, k model.Round) *Schedule {
	n := 3*t + 1
	s := New(n, t, WithGSR(k+1))
	hidden := []model.ProcessID{1}
	for q := model.ProcessID(3); int(q) <= t+1; q++ {
		hidden = append(hidden, q)
	}
	receivers := []model.ProcessID{2}
	for q := model.ProcessID(2*t + 2); int(q) <= n; q++ {
		receivers = append(receivers, q)
	}
	for r := model.Round(1); r <= k; r++ {
		for _, from := range hidden {
			for _, to := range receivers {
				s.Delay(r, from, to, k+1)
			}
		}
	}
	return s
}

// DivergenceProposalsLeader returns the initial configuration that keeps
// AMR estimates diverged under DivergencePrefixLeader(t, ·): value 2 at
// the deprived group X = {p2} ∪ {p_{2t+2}..pn} and value 1 elsewhere.
//
// Stability: X never hears p1 (nor the other low 1-holders), so X's
// perceived leader is p2, which — hearing no process below itself — keeps
// adopting its own estimate 2, and X follows it; everyone else follows the
// true leader p1 and keeps 1. In the even adoption rounds a full-view
// process sees 2t ones and t+1 twos (below the n−t decision quorum, with
// plurality 1), while an X member sees t ones and t+1 twos (unique
// plurality 2) — so nobody decides and both groups reproduce their value.
func DivergenceProposalsLeader(t int) []model.Value {
	n := 3*t + 1
	out := make([]model.Value, n)
	for i := range out {
		out[i] = 1
	}
	out[1] = 2
	for i := 2*t + 1; i < n; i++ {
		out[i] = 2
	}
	return out
}

// SplitBrain returns the Sect. 1.1 resilience-price schedule for an even n
// with t = n/2: for splitRounds rounds the system is partitioned into
// halves {1..n/2} and {n/2+1..n}, every cross-half message being delayed to
// round splitRounds+1 (the GSR). Each process still receives n−t = n/2
// same-round messages (its own half), so the schedule satisfies
// t-resilience; it is built with AllowUnsafeResilience because t ≥ n/2.
// Running any indulgent algorithm configured with t = n/2 under this
// schedule violates agreement: each half decides on its own minimum.
func SplitBrain(n int, splitRounds model.Round) *Schedule {
	t := n / 2
	s := New(n, t, WithGSR(splitRounds+1), AllowUnsafeResilience())
	half := n / 2
	for r := model.Round(1); r <= splitRounds; r++ {
		for from := model.ProcessID(1); int(from) <= n; from++ {
			for to := model.ProcessID(1); int(to) <= n; to++ {
				if from == to {
					continue
				}
				fromA := int(from) <= half
				toA := int(to) <= half
				if fromA != toA {
					s.Delay(r, from, to, splitRounds+1)
				}
			}
		}
	}
	return s
}
