package service

import (
	"fmt"
	"time"

	"indulgence/internal/adapt"
	"indulgence/internal/chaos/clock"
	"indulgence/internal/check"
	"indulgence/internal/model"
	"indulgence/internal/runtime"
	"indulgence/internal/transport"
	"indulgence/internal/wire"
)

// runInstance executes the hosted processes' nodes of one consensus
// instance for a batch of proposals over the instance's endpoints, which
// the batcher opened on every hosted process's mux: it spreads the
// batch's values round-robin over the hosted processes as their
// proposals, runs a fresh runtime.Cluster under the instance's algorithm
// choice (the selector's pick, or the static configuration) until every
// hosted node has halted — a decided node halts once it has relayed
// DECIDE, so the instance is over for this service either way — and then
// retires it, journals the decision and resolves the batch's futures.
// With every process hosted the decision is also audited with
// check.Instance. A joined instance (a peer started it) may carry an
// empty batch.
func (s *Service) runInstance(instance uint64, eps []transport.Transport, batch []*pending, choice adapt.Choice, joined bool) {
	defer s.wg.Done()
	begin := s.cfg.Clock.Now()
	// end gives back everything the instance holds here: its streams on
	// every mux (later frames for it are dropped, and a join signal for
	// it no longer opens) and the slot ticket bounding concurrent
	// consensus runs — before the journal fsync and future resolution,
	// so durability latency overlaps the next instance's consensus
	// instead of throttling slot turnover.
	end := func() {
		s.retire(instance)
		<-s.slots
	}

	// Proposals are indexed by process; entries of remote processes stay
	// zero and are never consulted. The k-th hosted process proposes
	// batch[k mod len(batch)] — the round-robin spread when every process
	// is hosted, batch[0] for a lone member — or the noop when a join
	// launched an empty batch.
	props := make([]model.Value, s.cfg.N)
	for k, m := range s.muxes {
		id := m.Self()
		props[id-1] = noopValue
		if len(batch) > 0 {
			props[id-1] = batch[k%len(batch)].value
		}
	}
	cl, err := runtime.New(runtime.Config{
		N: s.cfg.N, T: s.cfg.T,
		Factory:     choice.Factory,
		Proposals:   props,
		Endpoints:   eps,
		Members:     s.hosted,
		WaitPolicy:  choice.WaitPolicy,
		BaseTimeout: s.cfg.BaseTimeout,
		MaxRounds:   s.cfg.MaxRounds,
		Clock:       s.cfg.Clock,
		Detectors:   s.detectors,
	})
	if err != nil {
		end()
		s.failInstance(batch, fmt.Errorf("service: instance %d: %w", instance, err))
		return
	}
	if s.cfg.OnInstance != nil {
		s.cfg.OnInstance(instance, cl)
	}
	// Joined slots carrying no local futures may fail quietly and soon;
	// anything with real proposals aboard gets the full deadline.
	deadline := s.cfg.InstanceTimeout
	if joined && len(batch) == 0 {
		deadline = s.cfg.JoinTimeout
	}
	ctx, cancel := clock.WithTimeout(s.runCtx, s.cfg.Clock, deadline)
	results, runErr := cl.Run(ctx)
	cancel()
	end()

	decisions := make([]model.OptValue, s.cfg.N)
	var crashed model.PIDSet
	var (
		value      model.Value
		round      model.Round
		have       bool
		suspicions int
	)
	for _, r := range results {
		decisions[r.ID-1] = r.Decision
		suspicions += r.Suspicions
		if r.Crashed {
			crashed.Add(r.ID)
		}
		if v, ok := r.Decision.Get(); ok {
			if !have {
				value, have = v, true
			}
			if r.Round > round {
				round = r.Round
			}
		}
	}
	if !have {
		if runErr == nil {
			runErr = fmt.Errorf("service: instance %d reached no decision", instance)
		}
		s.failInstance(batch, fmt.Errorf("service: instance %d: %w", instance, runErr))
		return
	}
	decided := s.cfg.Clock.Since(begin)
	// The local audit needs every process's proposal and decision, so it
	// runs only with every process hosted; a member cannot see its peers'
	// proposals, and cross-member agreement stays with check.Replay.
	var rep check.Report
	if !s.remote {
		// An instance cancelled by service shutdown (Abort, or a Close
		// racing a kill) had its undecided nodes die with the service —
		// that is a crash-stop, not a termination violation, so they are
		// excused the way crash-injected processes are. Safety is still
		// audited in full.
		if runErr != nil && s.runCtx.Err() != nil {
			for i, d := range decisions {
				if _, ok := d.Get(); !ok {
					crashed.Add(model.ProcessID(i + 1))
				}
			}
		}
		rep = check.Instance(decisions, props, crashed)
	}

	// The batch's SLO class is its highest member class: the instance did
	// that class's work, so the journal record and decision carry it.
	batchClass := 0
	for _, p := range batch {
		if p.class > batchClass {
			batchClass = p.class
		}
	}

	// Journal-before-complete: the decision record must be durable
	// before any future resolves, so a crash can lose an
	// acknowledgement but never an acknowledged decision. A journal
	// failure fails the batch — clients retry onto a fresh instance —
	// because resolving an unjournaled decision would let a restart
	// re-run the instance. Batch counts local proposals; a joined slot's
	// noop is a real proposal, so the record never claims an impossible
	// batch of 0.
	size := max(len(batch), 1)
	if s.cfg.Journal != nil {
		rec := wire.DecisionRecord{Instance: instance, Value: value, Round: round, Batch: size, Class: batchClass}
		if err := s.cfg.Journal.Append(rec); err != nil {
			s.failInstance(batch, fmt.Errorf("service: journal instance %d: %w", instance, err))
			return
		}
	}

	dec := Decision{Instance: instance, Value: value, Round: round, Batch: size, Class: batchClass}
	now := s.cfg.Clock.Now()
	var latencies []time.Duration
	for _, p := range batch {
		latencies = append(latencies, now.Sub(p.enqueued))
		p.fut.resolve(dec, nil)
	}

	s.sampleMu.Lock()
	for _, l := range latencies {
		s.latencies.Add(l)
		s.mPropLat.Observe(int64(l))
	}
	s.rounds.Add(int(round))
	s.instLat.Add(decided)
	s.mDecLat.Observe(int64(decided))
	if round > 0 {
		s.roundLat.Add(decided / time.Duration(round))
	}
	if choice.Name != "" {
		s.roundsHist(choice.Name).Observe(int64(round))
	}
	for _, v := range rep.Violations {
		s.violations = append(s.violations,
			fmt.Sprintf("instance %d: %s", instance, v))
	}
	s.sampleMu.Unlock()
	s.mViolations.Add(int64(len(rep.Violations)))
	if joined {
		s.mJoined.Inc()
	}
	s.mDecisions.Inc()
	s.mResolved.Add(int64(len(batch)))
	if s.plane != nil {
		s.plane.ObserveDecision(latencies, suspicions)
	}
}

// failInstance resolves a batch's futures with err and records the
// failure — a missed decision the selector treats as the strongest
// distrust signal. A joined instance may fail with an empty batch: only
// the instance counters move.
func (s *Service) failInstance(batch []*pending, err error) {
	failBatch(batch, err)
	if s.plane != nil {
		s.plane.ObserveFailure()
	}
	s.mInstFail.Inc()
	s.mFailed.Add(int64(len(batch)))
}
