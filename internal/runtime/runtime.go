// Package runtime executes the round-based algorithms as live goroutine
// processes over an asynchronous transport — the engineering counterpart
// of the lockstep simulator. Each process runs its own round loop: it
// broadcasts its round message, collects inbound messages until its wait
// policy is satisfied (at least n−t round messages, plus — under the
// A_{t+2}/◇P discipline — every process its timeout detector does not
// suspect), and hands the receive set to the algorithm. Timeouts adapt
// (doubling on every false suspicion), so an eventually synchronous
// network yields exactly the ES behaviour the paper assumes: finitely many
// false suspicions, then synchrony.
//
// A process that decides relays DECIDE once and halts, as in the paper:
// its next round's broadcast is the relay, which the node builds itself,
// and a DECIDE of the current or an earlier round ends any receiver's wait
// and decides it without the algorithm's EndRound being called. The
// algorithm is never called after its decision, and never sends or reads
// DECIDE. Every decider relays before it reports, so by induction on the
// smallest decision round every correct undecided process eventually
// decides. The lockstep simulator runs the same relay-then-halt rule.
//
// A Cluster executes one consensus instance. Its round loops, algorithm
// state machines and wait policy are instantiated per instance; the
// transport endpoints and the timeout detectors underneath are process
// state and may be shared. The service layer exploits exactly this
// split: it runs many Clusters concurrently over virtual endpoints of a
// transport.Mux and hands every one the same detector per hosted
// process, so every instance gets fresh algorithm state but all
// instances share one set of sockets and mailboxes and one view of which
// peers are down. Run is the whole lifecycle: its nodes halt on their
// own, so it returns when the last member has.
//
// A node assembles every receive set with payload.Inbox, the rule the
// lockstep simulator also runs: one round-k message per sender, frames
// that arrived early included, plus the messages of earlier rounds that
// arrive during round k; frames of later rounds are held for their round.
//
// Within an instance a node builds its round machinery once: one inbox
// whose receive set is reused every round (the algorithm reads it only
// during EndRound), and one poll ticker re-armed at each round start, so
// each round's first poll falls BaseTimeout/4 after the round starts. A
// frame whose payload bytes equal the last decoded frame's reuses that
// payload: payloads are never mutated (model.Payload) and frames are
// immutable once sent.
//
// The runtime is where indulgence becomes visible as an engineering
// property: injected delays cause false suspicions and slow decisions but
// never endanger agreement.
package runtime

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"indulgence/internal/chaos/clock"
	"indulgence/internal/core"
	"indulgence/internal/fd"
	"indulgence/internal/model"
	"indulgence/internal/transport"
)

// DefaultBaseTimeout is the initial per-process suspicion timeout when a
// configuration leaves it zero.
const DefaultBaseTimeout = 25 * time.Millisecond

// Config describes a live cluster.
type Config struct {
	// N and T describe the system; T bounds the crashes the run must
	// tolerate.
	N, T int
	// Factory builds each process's algorithm.
	Factory model.Factory
	// Proposals holds one proposal per process.
	Proposals []model.Value
	// Endpoints holds one transport endpoint per process (Endpoints[id-1]
	// must answer Self() == id). Endpoints may be physical (Hub, TCP) or
	// virtual (one instance's streams of a transport.Mux). Entries for
	// processes outside Members may be nil.
	Endpoints []transport.Transport
	// Members selects which of the N processes THIS cluster object
	// actually runs (empty = all of them, the single-process default).
	// A multi-process deployment gives every OS process a cluster with
	// Members = {self}: the remaining N-1 processes run elsewhere and
	// are reached through the transport, so proposals and endpoints are
	// only consulted at member indices.
	Members model.PIDSet
	// WaitPolicy selects the receive discipline (default WaitUnsuspected,
	// the A_{t+2} discipline; WaitQuorum is the ◇S discipline of Fig. 3).
	WaitPolicy core.WaitPolicy
	// BaseTimeout is the initial per-process suspicion timeout (default
	// 25ms). It doubles on every false suspicion.
	BaseTimeout time.Duration
	// MaxRounds aborts a node after this many rounds (default 256).
	MaxRounds model.Round
	// Clock is the time source for round pacing and suspicion timeouts
	// (default the wall clock). The chaos harness injects a virtual
	// clock here, turning timeout behaviour into a deterministic
	// function of the simulated schedule.
	Clock clock.Clock
	// Detectors holds one failure detector per process, indexed like
	// Endpoints. A detector is process state: the service passes the same
	// one to every instance a hosted process runs, so what one instance
	// learns ends the others' waits. A nil slice or nil entry gets a fresh
	// detector on Clock from BaseTimeout, private to this cluster.
	Detectors []*fd.TimeoutDetector
}

// NodeResult is one process's outcome.
type NodeResult struct {
	// ID identifies the process.
	ID model.ProcessID
	// Decision is the decided value (⊥ if none).
	Decision model.OptValue
	// Round is the round at the end of which the process decided.
	Round model.Round
	// Elapsed is the time on the cluster's clock from start to the
	// node's halt (for a decider: its decision plus the relay's sends).
	Elapsed time.Duration
	// Crashed reports whether the process was crash-injected.
	Crashed bool
	// Suspicions is the trust signal the adaptive control plane
	// aggregates per instance: the trusted-to-suspected transitions this
	// node raised, plus the number of peers its detector still suspected
	// when it halted. The second term keeps a suspicion carried in from an
	// earlier instance visible, since a shared detector raises it only
	// once. 0 in a synchronous trusted run.
	Suspicions int
}

// Cluster is a set of live processes executing one consensus instance.
type Cluster struct {
	cfg       Config
	nodes     []*node
	decisions chan NodeResult
	started   atomic.Bool
}

// New validates the configuration and assembles a cluster (no goroutines
// start until Run).
func New(cfg Config) (*Cluster, error) {
	if cfg.N < 2 {
		return nil, fmt.Errorf("runtime: need at least 2 processes, got %d", cfg.N)
	}
	if len(cfg.Proposals) != cfg.N || len(cfg.Endpoints) != cfg.N {
		return nil, fmt.Errorf("runtime: need %d proposals and endpoints, got %d and %d",
			cfg.N, len(cfg.Proposals), len(cfg.Endpoints))
	}
	if cfg.Factory == nil {
		return nil, errors.New("runtime: nil factory")
	}
	if cfg.WaitPolicy == 0 {
		cfg.WaitPolicy = core.WaitUnsuspected
	}
	if cfg.BaseTimeout == 0 {
		cfg.BaseTimeout = DefaultBaseTimeout
	}
	if cfg.MaxRounds == 0 {
		cfg.MaxRounds = 256
	}
	cfg.Clock = clock.Or(cfg.Clock)
	if cfg.Members.IsEmpty() {
		cfg.Members = model.FullPIDSet(cfg.N)
	}
	if outside := cfg.Members.Diff(model.FullPIDSet(cfg.N)); !outside.IsEmpty() {
		return nil, fmt.Errorf("runtime: members %v outside 1..%d", outside, cfg.N)
	}
	c := &Cluster{
		cfg:       cfg,
		nodes:     make([]*node, cfg.N),
		decisions: make(chan NodeResult, cfg.N),
	}
	for i := 0; i < cfg.N; i++ {
		id := model.ProcessID(i + 1)
		if !cfg.Members.Has(id) {
			continue
		}
		if cfg.Endpoints[i] == nil {
			return nil, fmt.Errorf("runtime: member p%d has a nil endpoint", id)
		}
		if cfg.Endpoints[i].Self() != id {
			return nil, fmt.Errorf("runtime: endpoint %d answers Self()=%d", id, cfg.Endpoints[i].Self())
		}
		alg, err := cfg.Factory(model.ProcessContext{Self: id, N: cfg.N, T: cfg.T}, cfg.Proposals[i])
		if err != nil {
			return nil, fmt.Errorf("runtime: build algorithm for p%d: %w", id, err)
		}
		var detector *fd.TimeoutDetector
		if i < len(cfg.Detectors) {
			detector = cfg.Detectors[i]
		}
		if detector == nil {
			detector = fd.NewTimeoutDetectorClock(cfg.BaseTimeout, cfg.Clock)
		}
		c.nodes[i] = &node{
			id:        id,
			cfg:       &c.cfg,
			alg:       alg,
			ep:        cfg.Endpoints[i],
			detector:  detector,
			decisions: c.decisions,
		}
	}
	return c, nil
}

// Crash kills process p: its goroutine stops sending and receiving, like a
// crash-stop failure. Safe to call at any time — a crash requested before
// Run takes effect as the node starts, one after the node halted is a
// no-op. Only members of this cluster object can be crashed through it.
func (c *Cluster) Crash(p model.ProcessID) error {
	if p < 1 || int(p) > c.cfg.N {
		return fmt.Errorf("runtime: no process %d", p)
	}
	if c.nodes[p-1] == nil {
		return fmt.Errorf("runtime: process %d runs in another OS process", p)
	}
	c.nodes[p-1].crash()
	return nil
}

// Run starts every member process and blocks until each has halted —
// decided and relayed, crashed, or out of rounds — or ctx is done, then
// waits for their goroutines to exit. It returns one result per process;
// entries for processes running in other OS processes (outside Members)
// are zero-valued placeholders, and on ctx's end so are the members that
// had not reported yet. A cluster runs once.
func (c *Cluster) Run(ctx context.Context) ([]NodeResult, error) {
	if !c.started.CompareAndSwap(false, true) {
		return nil, errors.New("runtime: cluster already ran")
	}
	var wg sync.WaitGroup
	defer wg.Wait()
	for _, n := range c.nodes {
		if n != nil {
			n.start(ctx, &wg)
		}
	}
	results := make([]NodeResult, c.cfg.N)
	for i := range results {
		results[i] = NodeResult{ID: model.ProcessID(i + 1)}
	}
	pending := c.cfg.Members.Len()
	for pending > 0 {
		select {
		case res := <-c.decisions:
			results[res.ID-1] = res
			pending--
		case <-ctx.Done():
			// Collect whatever is already queued, then report.
			for {
				select {
				case res := <-c.decisions:
					results[res.ID-1] = res
					pending--
				default:
					return results, ctx.Err()
				}
			}
		}
	}
	return results, nil
}
