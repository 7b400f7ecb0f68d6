package sched

import (
	"errors"
	"fmt"

	"indulgence/internal/model"
)

// Validation errors matched by callers and tests.
var (
	// ErrResilience reports that more processes crash than the schedule's
	// resilience bound t permits.
	ErrResilience = errors.New("sched: more than t crashes")
	// ErrTResilience reports a violation of the ES t-resilience axiom:
	// some process completing a round would receive fewer than n−t
	// same-round messages.
	ErrTResilience = errors.New("sched: t-resilience violated")
	// ErrReliableChannels reports a lost message between two correct
	// processes, violating the ES reliable-channels axiom.
	ErrReliableChannels = errors.New("sched: reliable channels violated")
	// ErrEventualSynchrony reports non-synchronous behaviour at or after
	// the GSR.
	ErrEventualSynchrony = errors.New("sched: eventual synchrony violated")
	// ErrSynchronousModel reports ES-only behaviour (delays, spurious
	// losses) in an SCS schedule.
	ErrSynchronousModel = errors.New("sched: behaviour not allowed in SCS")
	// ErrMajorityCorrect reports t ≥ n/2 for an ES schedule without
	// AllowUnsafeResilience, the indulgence resilience requirement.
	ErrMajorityCorrect = errors.New("sched: ES requires t < n/2 (use AllowUnsafeResilience to override)")
)

// Validate checks that the schedule is a legal adversary for the given
// synchrony model, enforcing the model axioms of Sect. 1.2 of the paper:
//
//   - SCS: every message is delivered in its send round, except that a
//     process crashing in round k may lose any subset of its round-k
//     messages. No delays, GSR is meaningless (must be 1).
//   - ES: t-resilience (every process completing round k receives at
//     least n−t round-k messages in round k, its own included), reliable
//     channels (correct→correct messages are never lost, only finitely
//     delayed), and eventual synchrony from the GSR on (non-crashing
//     senders are heard in-round; per footnote 5, a sender crashing in
//     round k ≥ GSR may still have its round-k messages lost or delayed).
//
// Validate returns the first violation found, wrapped around one of the
// exported sentinel errors: a shape error first, then the first bad fate
// in (round, from, to) order, then the first round and receiver short of
// n−t messages.
func (s *Schedule) Validate(syn model.Synchrony) error {
	if err := s.validateShape(syn); err != nil {
		return err
	}
	for key, f := range s.fates {
		if err := s.validateFate(syn, key, f); err != nil {
			return err
		}
	}
	if syn == model.ES {
		if err := s.validateTResilience(); err != nil {
			return err
		}
	}
	return nil
}

func (s *Schedule) validateShape(syn model.Synchrony) error {
	switch {
	case s.n < 2:
		return fmt.Errorf("sched: n must be at least 2, got %d", s.n)
	case s.n > model.MaxProcesses:
		return fmt.Errorf("sched: n must be at most %d, got %d", model.MaxProcesses, s.n)
	case s.t < 0 || s.t >= s.n:
		return fmt.Errorf("sched: t must be in [0, n), got t=%d n=%d", s.t, s.n)
	case s.gsr < 1:
		return fmt.Errorf("sched: GSR must be at least 1, got %d", s.gsr)
	}
	if syn == model.SCS && s.gsr != 1 {
		return fmt.Errorf("%w: GSR=%d in SCS", ErrSynchronousModel, s.gsr)
	}
	if syn == model.ES && !s.allowUnsafe && 2*s.t >= s.n {
		return fmt.Errorf("%w: t=%d n=%d", ErrMajorityCorrect, s.t, s.n)
	}
	if c := s.Crashes(); c > s.t && !s.allowUnsafe {
		return fmt.Errorf("%w: %d crashes with t=%d", ErrResilience, c, s.t)
	}
	if len(s.stray) > 0 {
		c := s.stray[0]
		if !s.inRange(c.p) {
			return fmt.Errorf("sched: crash of out-of-range process p%d", c.p)
		}
		return fmt.Errorf("sched: crash of p%d in invalid round %d", c.p, c.r)
	}
	return nil
}

func (s *Schedule) validateFate(syn model.Synchrony, key fateKey, f Fate) error {
	if key.from < 1 || int(key.from) > s.n || key.to < 1 || int(key.to) > s.n {
		return fmt.Errorf("sched: fate references out-of-range process (r%d p%d->p%d)", key.round, key.from, key.to)
	}
	if key.from == key.to {
		return fmt.Errorf("sched: self-message fate scheduled for p%d round %d (self-delivery is always on time)", key.from, key.round)
	}
	if key.round < 1 {
		return fmt.Errorf("sched: fate in invalid round %d", key.round)
	}
	cr, crashed := s.CrashRound(key.from)
	if crashed && key.round > cr {
		return fmt.Errorf("sched: fate for message from p%d in round %d after its crash in round %d", key.from, key.round, cr)
	}
	senderCrashesNow := crashed && cr == key.round
	switch f.Kind {
	case OnTime:
		return nil
	case Delayed:
		if syn == model.SCS {
			return fmt.Errorf("%w: delayed message r%d p%d->p%d", ErrSynchronousModel, key.round, key.from, key.to)
		}
		if f.DeliverRound <= key.round {
			return fmt.Errorf("sched: delayed message r%d p%d->p%d must be delivered strictly later, got round %d",
				key.round, key.from, key.to, f.DeliverRound)
		}
		// Eventual synchrony: a message sent at or after the GSR by a
		// non-crashing sender must be delivered in-round. Footnote 5 of
		// the paper permits messages from a sender crashing in that round
		// to be delayed arbitrarily, even in synchronous runs.
		if key.round >= s.gsr && !senderCrashesNow {
			return fmt.Errorf("%w: delayed message r%d p%d->p%d sent at/after GSR %d by non-crashing sender",
				ErrEventualSynchrony, key.round, key.from, key.to, s.gsr)
		}
		return nil
	case Lost:
		if syn == model.SCS {
			if !senderCrashesNow {
				return fmt.Errorf("%w: lost message r%d p%d->p%d from non-crashing sender",
					ErrSynchronousModel, key.round, key.from, key.to)
			}
			return nil
		}
		// ES: only messages involving a faulty endpoint may be lost.
		if s.Correct(key.from) && s.Correct(key.to) {
			return fmt.Errorf("%w: lost message r%d p%d->p%d between correct processes",
				ErrReliableChannels, key.round, key.from, key.to)
		}
		if key.round >= s.gsr && !senderCrashesNow {
			return fmt.Errorf("%w: lost message r%d p%d->p%d sent at/after GSR %d by non-crashing sender",
				ErrEventualSynchrony, key.round, key.from, key.to, s.gsr)
		}
		return nil
	default:
		return fmt.Errorf("sched: invalid fate kind %d for r%d p%d->p%d", f.Kind, key.round, key.from, key.to)
	}
}

// validateTResilience checks that every process completing any round
// receives at least n−t same-round messages in that round. Rounds beyond
// MaxScheduledRound are fully synchronous and failure-free, so checking the
// scheduled prefix suffices.
func (s *Schedule) validateTResilience() error {
	horizon := s.MaxScheduledRound()
	quorum := s.n - s.t
	for r := model.Round(1); r <= horizon; r++ {
		for p := model.ProcessID(1); int(p) <= s.n; p++ {
			if !s.CompletesRound(p, r) {
				continue
			}
			onTime := 0
			for q := model.ProcessID(1); int(q) <= s.n; q++ {
				if !s.SendsIn(q, r) {
					continue
				}
				if s.FateOf(r, q, p).Kind == OnTime {
					onTime++
				}
			}
			if onTime < quorum {
				return fmt.Errorf("%w: p%d receives %d < n-t=%d round-%d messages",
					ErrTResilience, p, onTime, quorum, r)
			}
		}
	}
	return nil
}
