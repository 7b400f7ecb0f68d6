// Package service is the consensus-as-a-service layer: it multiplexes
// many concurrent consensus instances over a single cluster of live
// processes. Clients hand proposals to Propose and get back a Future;
// the service batches proposals (up to MaxBatch, waiting at most Linger),
// assigns each batch to a fresh consensus instance, and runs up to
// MaxInflight instances concurrently, each as its own runtime.Cluster
// over virtual endpoints of per-process transport.Muxes. Every instance
// therefore gets its own round loops and wait policy, while all
// instances share one set of physical connections — one Hub mailbox or
// one TCP connection per ordered process pair — and one failure detector
// per hosted process, so a crashed peer is suspected once, not once per
// instance.
//
// The decided value of an instance is, by validity, the proposal of one
// of the batch's members (proposals are spread round-robin over the n
// processes); the whole batch commits with that instance, so every
// member's Future resolves to the same Decision. Each resolved instance
// is audited with check.Instance, and any violation — which the paper
// proves cannot happen, and which the service therefore treats as a
// defect detector — is retained in the Stats snapshot.
//
// Where the n processes run is not the service's business: New hosts the
// processes whose endpoints it is handed. All n endpoints is the
// single-process service; a subset — typically one — makes the service a
// member of a multi-process cluster whose other processes are hosted by
// other services (other OS processes, usually) and reached through the
// transport. Nothing but that endpoint set selects between the two. With
// a remote process, instance IDs are global slots shared by all members:
// a member initiates a slot when it cuts a local batch and joins one — on
// the mux's pending-frame signal — when a peer initiated it. Two members
// initiating one slot concurrently is not a conflict, it is consensus:
// both propose, the round protocol picks one value, both resolve their
// local futures to it. A member audits only what it can see; cross-member
// uniform agreement is audited offline by check.Replay over the members'
// journals (`indulgence cluster` does exactly that).
//
// With a journal configured, every decision is made durable before its
// futures resolve (journal-before-complete), and a restarted service
// recovers from the log: it serves journaled decisions via Lookup
// without re-running consensus and resumes its instance-ID frontier past
// the highest journaled instance, so the paper's per-decision price is
// paid once per decision, not once per process lifetime.
//
// This is where the paper's "price of indulgence" becomes a service-level
// quantity: decisions per second and per-proposal latency under injected
// asynchrony, with the t+2 round floor visible as the latency baseline of
// every instance.
package service

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"indulgence/internal/adapt"
	"indulgence/internal/chaos/clock"
	"indulgence/internal/core"
	"indulgence/internal/fd"
	"indulgence/internal/journal"
	"indulgence/internal/metrics"
	"indulgence/internal/model"
	"indulgence/internal/runtime"
	"indulgence/internal/stats"
	"indulgence/internal/transport"
	"indulgence/internal/wire"
)

// ErrClosed reports use of a closed service.
var ErrClosed = errors.New("service: closed")

// Config describes a consensus service.
type Config struct {
	// N and T describe the underlying system; T bounds tolerated crashes.
	N, T int
	// Factory builds each process's algorithm, once per instance.
	Factory model.Factory
	// WaitPolicy selects the receive discipline (default WaitUnsuspected).
	WaitPolicy core.WaitPolicy
	// BaseTimeout is the initial per-peer suspicion timeout of every
	// hosted process's failure detector (default 25ms).
	BaseTimeout time.Duration
	// MaxRounds aborts an instance's node after this many rounds
	// (default 256).
	MaxRounds model.Round
	// MaxBatch is the largest number of proposals decided by one instance
	// (default 8).
	MaxBatch int
	// Linger is how long an under-full batch waits for more proposals
	// before it is cut (default 2ms).
	Linger time.Duration
	// MaxInflight bounds the number of concurrently running instances
	// (default 16). When every slot is busy, batches queue.
	MaxInflight int
	// InstanceTimeout is the per-instance deadline (default 30s). An
	// instance that misses it fails its batch's futures.
	InstanceTimeout time.Duration
	// JoinTimeout is the deadline of instances joined on a peer's signal
	// with no local proposals aboard (default 10s; unused when every
	// process is hosted). Such an instance carries no futures, so a join
	// that never decides — stale round or relay traffic from before a
	// restart, or a cluster that lost too many members — fails quietly
	// after this long instead of holding a slot for InstanceTimeout.
	JoinTimeout time.Duration
	// Journal, when non-nil, makes decisions durable: every instance's
	// decision record is appended and fsynced (group-committed across
	// concurrent instances) before the batch's futures resolve —
	// journal-before-complete — and the service resumes its instance-ID
	// frontier past the highest journaled instance, so a restarted
	// service never re-runs an instance it already decided. The journal
	// is owned by the caller and is not closed by Close.
	Journal *journal.Journal
	// Adaptive, when non-nil, attaches the feedback control plane
	// (internal/adapt): MaxBatch and Linger become the controller's
	// starting point instead of fixed constants, saturation sheds
	// proposals with adapt.ErrOverload, and — with SelectAlgorithms —
	// every instance runs the algorithm the selector currently trusts,
	// its choice journaled in the instance's start claim. The intake
	// buffer is sized to the controller's batch ceiling. SelectAlgorithms
	// needs every process hosted: a member cannot unilaterally change the
	// protocol of a slot it shares with its peers, so New rejects it when
	// a process is remote.
	Adaptive *adapt.Config
	// OnInstance, when non-nil, is invoked on the instance goroutine
	// after the instance's cluster is assembled and immediately before
	// its rounds start — the fault-injection and observability hook the
	// live experiments and the chaos harness use to crash processes or
	// delay links of a specific instance. The hook may retain cl to
	// inject faults for as long as the instance runs (Crash is safe at
	// any point of the cluster's lifetime, and is a no-op once the
	// instance has stopped), but must not call cl.Run.
	OnInstance func(instance uint64, cl *runtime.Cluster)
	// Clock is the time source for batching lingers, instance deadlines,
	// latency accounting and the control loop (default the wall clock).
	// The chaos harness injects a virtual clock here and threads it
	// through every instance's runtime cluster.
	Clock clock.Clock
	// Metrics, when non-nil, registers the service's instruments on this
	// registry, every series carrying the constant label group="0" (the
	// series names scrapers and recorded snapshots already know):
	// proposal/decision/failure counters, suspicion events (raised by the
	// hosted processes' timeout detectors), proposal- and
	// decision-latency histograms, and — the paper's price gap as a live
	// series — indulgence_rounds_per_decision histograms per algorithm
	// rung. The registry is shared with the adaptive control plane, and
	// New's muxes count frames on it (unlabelled; see transport.NewMux).
	// Snapshots of the registry are pure functions of the event schedule
	// when the service runs on a virtual clock (see internal/metrics).
	Metrics *metrics.Registry
}

// withDefaults returns cfg with zero fields replaced by defaults.
func (cfg Config) withDefaults() Config {
	if cfg.MaxBatch == 0 {
		cfg.MaxBatch = 8
	}
	if cfg.Linger == 0 {
		cfg.Linger = 2 * time.Millisecond
	}
	if cfg.BaseTimeout == 0 {
		cfg.BaseTimeout = runtime.DefaultBaseTimeout
	}
	if cfg.MaxInflight == 0 {
		cfg.MaxInflight = 16
	}
	if cfg.InstanceTimeout == 0 {
		cfg.InstanceTimeout = 30 * time.Second
	}
	if cfg.JoinTimeout == 0 {
		cfg.JoinTimeout = 10 * time.Second
	}
	cfg.Clock = clock.Or(cfg.Clock)
	return cfg
}

// noopValue is what a hosted process proposes when it joins an instance
// with no local proposals queued: the identity of the min-based estimate
// adoption the paper's algorithms use, so a noop loses to every real
// proposal and wins only an instance in which every proposer proposed
// one.
const noopValue = model.Value(math.MaxInt64)

// Decision is the resolution of a proposal: the instance it was batched
// into and the value that instance decided.
type Decision struct {
	// Instance identifies the consensus instance that committed the batch.
	Instance uint64
	// Value is the instance's decided value (the chosen batch member).
	Value model.Value
	// Round is the instance's global decision round — the slowest
	// process's decision round, where the t+2 floor shows.
	Round model.Round
	// Batch is the number of proposals committed by the instance.
	Batch int
	// Class is the highest SLO class among the batch's proposals (0 for
	// unclassed traffic) — the class the instance was journaled under.
	Class int
}

// Future resolves to the Decision of the instance a proposal was batched
// into.
type Future struct {
	done chan struct{}
	dec  Decision
	err  error
}

// Wait blocks until the proposal's instance resolves or ctx is done.
func (f *Future) Wait(ctx context.Context) (Decision, error) {
	select {
	case <-f.done:
		return f.dec, f.err
	case <-ctx.Done():
		return Decision{}, ctx.Err()
	}
}

// resolve fills the future exactly once.
func (f *Future) resolve(dec Decision, err error) {
	f.dec, f.err = dec, err
	close(f.done)
}

// pending is one enqueued proposal.
type pending struct {
	value    model.Value
	class    int
	enqueued time.Time
	fut      *Future
}

// Stats is a point-in-time snapshot of the service. Every counter in it
// is a read of the registry instrument that counts the event (Proposals
// is indulgence_proposals_total, Instances indulgence_decisions_total,
// Algorithms the per-rung indulgence_rounds_per_decision counts, …), with
// or without a Config.Metrics to render them — so a scrape and a Stats
// taken at the same quiescent instant cannot disagree.
type Stats struct {
	// Proposals counts accepted proposals; Resolved and Failed partition
	// the ones whose futures have fired.
	Proposals, Resolved, Failed int
	// Instances counts decided instances; InstanceFailures counts
	// instances that timed out or errored without a decision.
	Instances, InstanceFailures int
	// JoinedInstances counts decided instances the service adopted on a
	// peer's signal rather than initiating (always 0 when every process
	// is hosted).
	JoinedInstances int
	// Violations lists every consensus-property violation detected by
	// check.Instance over resolved instances — validity, agreement, and
	// termination (a correct process undecided at instance end, e.g. on
	// an instance timeout). The paper's theorems say the safety entries
	// stay empty; the service checks anyway. Always empty with a remote
	// process: the audit needs every process's proposal and decision,
	// and cross-member evidence lives in the journals (check.Replay).
	// indulgence_violations_total counts the entries.
	Violations []string
	// Latency summarizes per-proposal latency (enqueue to resolution).
	// Count and Mean are exact over the service's lifetime — the
	// indulgence_proposal_latency_ns histogram's count and sum/count, so
	// two snapshots subtract correctly however long the run; Min, Max and
	// the percentiles are over a bounded uniform sample of it (exact up
	// to 8,192 proposals).
	Latency stats.LatencySummary
	// Rounds summarizes global decision rounds across decided instances —
	// the t+2 price floor in round units — exactly, over every decision.
	Rounds stats.Summary
	// DecisionLatency summarizes per-instance latency from batch cut to
	// decision — the consensus cost alone, with queueing and linger
	// excluded. Exact Count and Mean (indulgence_decision_latency_ns),
	// sampled extremes and percentiles, as for Latency.
	DecisionLatency stats.LatencySummary
	// RoundLatency summarizes the wall-clock cost of one round
	// (per-instance decision latency divided by its decision round):
	// the quantity that turns the paper's round prices into seconds.
	// No histogram carries it, so all of it, Count included, is over
	// the same kind of bounded sample.
	RoundLatency stats.LatencySummary
	// BatchFill summarizes, exactly, the fill of cut batches as a
	// percentage of the effective batch limit at each cut (can exceed 100
	// when the controller shrank the limit under a filling batch).
	BatchFill stats.Summary
	// Overloads counts proposals shed by admission control with
	// adapt.ErrOverload (always 0 without an adaptive config).
	Overloads int
	// OverloadsByClass splits Overloads per SLO class: it is
	// Control.OverloadsByClass as is — index = the class admission judged
	// the proposal as, length = the plane's configured Classes — and nil
	// when the plane distinguishes a single class (or there is no plane).
	OverloadsByClass []int
	// Control is the adaptive control plane's snapshot: the current
	// effective batch/linger and the adjustment, tick, transition and
	// shed counts. Zero when the service runs static.
	Control adapt.Stats
	// Algorithms counts decided instances per algorithm name (the
	// statically configured algorithm's name when selection is off, as
	// probed from the factory; empty names are not counted).
	Algorithms map[string]int
}

// Service multiplexes consensus instances over the processes it hosts
// of one live cluster.
type Service struct {
	cfg Config
	// muxes holds one mux per hosted process, ascending by process ID;
	// hosted is the same set in the form runtime.Config.Members takes,
	// and remote reports that some process of the cluster is hosted
	// elsewhere — the one fact every member-only behaviour (joins, noop
	// proposals, no local audit) hangs off.
	muxes  []*transport.Mux
	hosted model.PIDSet
	remote bool

	// static is the fallback algorithm choice built from Config (its
	// Name probed from the factory); plane is the adaptive control
	// plane, nil for a statically configured service.
	static adapt.Choice
	plane  *adapt.Plane

	intake chan *pending
	// joins carries the slots peers have started (see join); nil when
	// every process is hosted, which removes the batcher's join case.
	joins       chan uint64
	slots       chan struct{}
	runCtx      context.Context
	runCancel   context.CancelFunc
	batcherDone chan struct{}
	wg          sync.WaitGroup

	// mu guards closed: Propose holds it for reading across the intake
	// send so Close never closes the channel under a sender.
	mu     sync.RWMutex
	closed bool

	// nextInstance and claimedThrough are touched only by the batcher
	// goroutine. nextInstance starts at the journal's recovered
	// frontier, so instance IDs are unique across process lifetimes;
	// claimedThrough is the first instance ID not yet covered by a
	// journaled start claim (IDs are claimed in MaxInflight-sized
	// blocks, so a crash wastes at most one block of IDs).
	nextInstance   uint64
	claimedThrough uint64

	// detectors holds one failure detector per hosted process, indexed by
	// process ID − 1 (nil for remote processes): built once, on the
	// service's clock, and handed to every instance, so a peer suspected
	// in one instance is suspected in all of them.
	detectors []*fd.TimeoutDetector

	// sampleMu guards what no instrument carries: the duration samples
	// behind the exact percentiles and extremes (power-of-two buckets hold
	// neither), the running round and fill summaries, the violation texts
	// and the algHist map. Instance goroutines and the batcher take it;
	// proposers never do.
	sampleMu   sync.Mutex
	violations []string
	latencies  *stats.Reservoir[time.Duration]
	instLat    *stats.Reservoir[time.Duration]
	roundLat   *stats.Reservoir[time.Duration]
	rounds     stats.Running
	fills      stats.Running

	// The instruments every counted event is counted in, once (live but
	// unrendered without Config.Metrics); Snapshot reads them back.
	// algHist holds the per-algorithm rounds-per-decision histograms,
	// registered lazily at an algorithm's first decision.
	reg           *metrics.Registry
	metricsLabels []metrics.Label
	mProposals    *metrics.Counter
	mResolved     *metrics.Counter
	mFailed       *metrics.Counter
	mDecisions    *metrics.Counter
	mInstFail     *metrics.Counter
	mJoined       *metrics.Counter
	mViolations   *metrics.Counter
	mPropLat      *metrics.Histogram
	mDecLat       *metrics.Histogram
	algHist       map[string]*metrics.Histogram
}

// maxSamples bounds the latency history a long-running service retains:
// percentiles are computed over a uniform reservoir sample of the stream
// (stats.Reservoir), so memory and Snapshot cost stay constant while the
// percentiles stay unbiased over the whole lifetime. The three duration
// reservoirs are the one per-service structure that grows with decisions
// made, so the bound is kept small.
const maxSamples = 1 << 13

// New starts a service hosting the processes whose transport endpoints
// it is handed: every endpoint's Self() must lie in 1..N, and the slice
// must be ascending by process ID without repeats. All N endpoints is
// the single-process service; fewer makes it a member of a multi-process
// cluster (see the package comment). The service wraps each endpoint in
// a transport.Mux counting frames on cfg.Metrics, owns all reads from
// it and closes the muxes with the service; the endpoints themselves
// remain owned by the caller and are not closed by Close.
func New(cfg Config, endpoints []transport.Transport) (*Service, error) {
	cfg = cfg.withDefaults()
	if cfg.N < 2 {
		return nil, fmt.Errorf("service: need at least 2 processes, got %d", cfg.N)
	}
	if len(endpoints) == 0 {
		return nil, errors.New("service: need at least one endpoint")
	}
	var members model.PIDSet
	var prev model.ProcessID
	for _, ep := range endpoints {
		if ep == nil {
			return nil, errors.New("service: nil endpoint")
		}
		id := ep.Self()
		if id < 1 || int(id) > cfg.N {
			return nil, fmt.Errorf("service: endpoint Self()=%d outside 1..%d", id, cfg.N)
		}
		if id <= prev {
			return nil, fmt.Errorf("service: endpoints must ascend by process ID without repeats (p%d after p%d)", id, prev)
		}
		members.Add(id)
		prev = id
	}
	remote := len(endpoints) < cfg.N
	if cfg.Factory == nil {
		return nil, errors.New("service: nil factory")
	}
	if remote && cfg.Adaptive != nil && cfg.Adaptive.SelectAlgorithms {
		return nil, errors.New("service: peer members cannot select algorithms per instance (the protocol of a shared slot is cluster-wide; run selection on the single-process service)")
	}
	static := adapt.Choice{
		Name:       adapt.ProbeName(cfg.Factory, cfg.N, cfg.T),
		Factory:    cfg.Factory,
		WaitPolicy: cfg.WaitPolicy,
	}
	labels := []metrics.Label{{Key: "group", Value: "0"}}
	var plane *adapt.Plane
	// The intake buffer must track the batch ceiling the batcher can
	// actually cut at — the controller's MaxBatch when adaptive, the
	// static MaxBatch otherwise. Sizing it from the static product alone
	// would re-introduce intake backpressure exactly when the controller
	// grows the batch to absorb a burst.
	ceiling := cfg.MaxBatch
	if cfg.Adaptive != nil {
		// The control plane observes on the service's clock unless the
		// caller injected its own: one clock drives lingers, deadlines
		// and controller windows alike, so a virtual-time run is
		// adaptive end to end.
		ac := *cfg.Adaptive
		if ac.Now == nil {
			ac.Now = cfg.Clock.Now
		}
		if cfg.Metrics != nil && ac.Metrics == nil {
			ac.Metrics, ac.MetricsLabels = cfg.Metrics, labels
		}
		plane = adapt.NewPlane(ac, static,
			adapt.Setting{Batch: cfg.MaxBatch, Linger: cfg.Linger}, cfg.N, cfg.T)
		if c := plane.BatchCeiling(); c > ceiling {
			ceiling = c
		}
	}
	muxes := make([]*transport.Mux, len(endpoints))
	for i, ep := range endpoints {
		muxes[i] = transport.NewMux(ep, cfg.Metrics)
	}
	s := &Service{
		cfg:         cfg,
		muxes:       muxes,
		hosted:      members,
		remote:      remote,
		static:      static,
		plane:       plane,
		intake:      make(chan *pending, ceiling*cfg.MaxInflight),
		slots:       make(chan struct{}, cfg.MaxInflight),
		batcherDone: make(chan struct{}),
		latencies:   stats.NewReservoirSeeded[time.Duration](maxSamples, 0),
		instLat:     stats.NewReservoirSeeded[time.Duration](maxSamples, 2),
		roundLat:    stats.NewReservoirSeeded[time.Duration](maxSamples, 3),
	}
	if remote {
		// Sized to absorb a burst of distinct slots between two batcher
		// turns; a signal dropped at the bound re-fires on the slot's
		// next inbound frame (see join).
		s.joins = make(chan uint64, 256)
	}
	reg := cfg.Metrics
	s.reg = reg
	s.metricsLabels = labels
	s.algHist = make(map[string]*metrics.Histogram)
	s.mProposals = reg.Counter("indulgence_proposals_total",
		"proposals accepted into intake", labels...)
	s.mResolved = reg.Counter("indulgence_resolved_total",
		"proposal futures resolved with a decision", labels...)
	s.mFailed = reg.Counter("indulgence_failed_total",
		"proposal futures failed without a decision", labels...)
	s.mDecisions = reg.Counter("indulgence_decisions_total",
		"consensus instances decided", labels...)
	s.mInstFail = reg.Counter("indulgence_instance_failures_total",
		"consensus instances that missed their decision", labels...)
	s.mJoined = reg.Counter("indulgence_joined_total",
		"decided instances adopted on a peer's join signal rather than initiated", labels...)
	s.mViolations = reg.Counter("indulgence_violations_total",
		"consensus-property violations the per-instance audit found", labels...)
	suspicions := reg.Counter("indulgence_suspicions_total",
		"failure-detector suspicion events raised across the service's instances", labels...)
	s.detectors = make([]*fd.TimeoutDetector, cfg.N)
	for _, m := range muxes {
		d := fd.NewTimeoutDetectorClock(cfg.BaseTimeout, cfg.Clock)
		d.Instrument(suspicions)
		s.detectors[m.Self()-1] = d
	}
	s.mPropLat = reg.Histogram("indulgence_proposal_latency_ns",
		"proposal latency, enqueue to resolution, in nanoseconds", 1<<12, 1<<34, labels...)
	s.mDecLat = reg.Histogram("indulgence_decision_latency_ns",
		"instance latency, batch cut to decision, in nanoseconds", 1<<12, 1<<34, labels...)

	if cfg.Journal != nil {
		// Recovery: resume the instance-ID frontier past every journaled
		// start claim and decision, and bulk-retire everything below it
		// on every mux, so stale round and relay frames from a previous
		// process lifetime are dropped instead of buffering for instances
		// nobody will open. The frontier covers joined slots too: a
		// restarted member must never re-run an instance its previous
		// lifetime touched — rejoining one with reset algorithm state
		// would be amnesia, not a crash-stop.
		s.nextInstance = cfg.Journal.Frontier()
		for _, m := range muxes {
			m.RetireBelow(s.nextInstance)
		}
	}
	s.claimedThrough = s.nextInstance
	s.runCtx, s.runCancel = context.WithCancel(context.Background())
	go s.batcher()
	if s.plane != nil {
		go s.controlLoop()
	}
	// Frames for a slot this service has not opened mean a peer started
	// it: that is the join signal. With every process hosted the service
	// opens all of an instance's streams itself before any frame exists,
	// so no signal is installed. Each mux replays the signal at install
	// for every stream that buffered frames in the meantime.
	if remote {
		for _, m := range muxes {
			m.OnPending(s.join)
		}
	}
	return s, nil
}

// controlLoop ticks the control plane at its interval with the live
// queue/slot occupancy until the service's run context ends. The ticks
// come from a sampler (clock.NewSampler): on a virtual clock a tick
// reads the occupancy its instant settled at, not whatever the batcher
// and the instances happened to reach first.
func (s *Service) controlLoop() {
	t := clock.NewSampler(s.cfg.Clock, s.plane.Interval())
	defer t.Stop()
	for {
		select {
		case <-s.runCtx.Done():
			return
		case <-t.C():
			s.plane.Tick(len(s.intake), cap(s.intake), len(s.slots), cap(s.slots))
		}
	}
}

// join signals that inbound frames exist for a slot this service has not
// opened, so a peer started it and the hosted processes should adopt it.
// It never blocks — callable straight from a mux router goroutine; a
// dropped signal re-fires on the slot's next inbound frame. New installs
// it as the join signal (Mux.OnPending) of its muxes when a process is
// remote; with every process hosted nothing calls it. The batcher drops
// every slot whose streams do not open — one already running here, or
// retired because it ran or lies below the recovered frontier — so a
// duplicate or stale signal costs nothing and counts nowhere.
func (s *Service) join(slot uint64) {
	select {
	case s.joins <- slot:
	default:
	}
}

// Lookup serves the journaled decision of an already-decided instance
// without re-running consensus — the recovery read path. It reports
// false when the service has no journal or the instance is not on
// record.
func (s *Service) Lookup(instance uint64) (Decision, bool) {
	if s.cfg.Journal == nil {
		return Decision{}, false
	}
	rec, ok := s.cfg.Journal.Get(instance)
	if !ok {
		return Decision{}, false
	}
	return Decision{Instance: rec.Instance, Value: rec.Value, Round: rec.Round, Batch: rec.Batch, Class: rec.Class}, true
}

// Propose enqueues a proposal and returns its Future. It blocks only when
// the intake buffer is full (every instance slot busy and batches queued),
// providing natural backpressure. An adaptive service whose admission
// gate detects sustained intake saturation sheds the proposal with
// adapt.ErrOverload instead of queueing it — callers back off and retry.
// Propose submits at SLO class 0; classed traffic uses ProposeClass.
func (s *Service) Propose(ctx context.Context, v model.Value) (*Future, error) {
	return s.ProposeClass(ctx, 0, v)
}

// ProposeClass enqueues a proposal at an SLO class (0..adapt.MaxClasses-1;
// higher classes survive admission control longer under overload). A shed
// classed proposal fails with an *adapt.OverloadError carrying the class's
// suggested back-off and retry budget; errors.Is(err, adapt.ErrOverload)
// matches it. The class rides with the proposal end to end: the deciding
// instance is journaled under the batch's highest class.
func (s *Service) ProposeClass(ctx context.Context, class int, v model.Value) (*Future, error) {
	if class < 0 || class >= adapt.MaxClasses {
		return nil, fmt.Errorf("service: class %d outside [0, %d]", class, adapt.MaxClasses-1)
	}
	p := &pending{value: v, class: class, enqueued: s.cfg.Clock.Now(), fut: &Future{done: make(chan struct{})}}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, ErrClosed
	}
	if s.plane != nil {
		if oe := s.plane.AdmitClass(class); oe != nil {
			return nil, oe // counted once, by the plane (see Snapshot)
		}
	}
	select {
	case s.intake <- p:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	s.mProposals.Inc()
	return p.fut, nil
}

// Close stops intake, flushes the pending batch, waits for every inflight
// instance to resolve, and shuts the muxes down. Endpoints passed to New
// stay open. Close is idempotent.
func (s *Service) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	close(s.intake)
	<-s.batcherDone
	s.wg.Wait()
	s.runCancel()
	for _, m := range s.muxes {
		_ = m.Close()
	}
	return nil
}

// Abort hard-stops the service without flushing — the shutdown shape a
// crash gives it, recoverable only through the journal (the
// crash-restart tests lean on it). In-flight instances are cancelled,
// queued batches fail their futures, and the muxes close so a successor
// service can take over the endpoints (closed muxes fail every further
// send, so leftover goroutines are crash-stopped off the shared
// transport). Decision records already durable survive; an instance
// caught between its journal append and its futures resolving may leave
// clients unanswered about a decision that is on record — exactly the
// window a real crash opens, and the reason recovery trusts the
// journal, not the clients. Unlike Close, Abort waits for nothing: the
// batcher and in-flight instance goroutines unwind on their own once
// cancelled (a crash cannot wait for a goroutine that may itself be
// blocked on the journal). Endpoints and the journal stay with their
// owners.
func (s *Service) Abort() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	s.runCancel()
	close(s.intake)
	for _, m := range s.muxes {
		_ = m.Close()
	}
}

// Snapshot returns current counters and latency/round summaries.
func (s *Service) Snapshot() Stats {
	st := Stats{
		Proposals:        int(s.mProposals.Value()),
		Resolved:         int(s.mResolved.Value()),
		Failed:           int(s.mFailed.Value()),
		Instances:        int(s.mDecisions.Value()),
		InstanceFailures: int(s.mInstFail.Value()),
		JoinedInstances:  int(s.mJoined.Value()),
		Algorithms:       make(map[string]int),
	}
	if s.plane != nil {
		// Sheds are the plane's per-class refusal counters — the one place
		// a shed is counted — so a proposal whose class exceeds the plane's
		// configured Classes shows under the class admission judged it as
		// (AdmitClass clamps).
		st.Control = s.plane.Snapshot()
		for _, k := range st.Control.OverloadsByClass {
			st.Overloads += k
		}
		if len(st.Control.OverloadsByClass) > 1 {
			st.OverloadsByClass = st.Control.OverloadsByClass
		}
	}
	s.sampleMu.Lock()
	defer s.sampleMu.Unlock()
	for alg, h := range s.algHist {
		st.Algorithms[alg] = int(h.Count())
	}
	st.Violations = append([]string(nil), s.violations...)
	st.Latency = exactMean(stats.SummarizeDurations(s.latencies.Values()), s.mPropLat)
	st.DecisionLatency = exactMean(stats.SummarizeDurations(s.instLat.Values()), s.mDecLat)
	st.RoundLatency = stats.SummarizeDurations(s.roundLat.Values())
	st.Rounds = s.rounds.Summary()
	st.BatchFill = s.fills.Summary()
	return st
}

// exactMean replaces a sampled summary's Count and Mean with the exact
// ones of the histogram every sampled duration was also observed into.
func exactMean(sum stats.LatencySummary, h *metrics.Histogram) stats.LatencySummary {
	if n := h.Count(); n > 0 {
		sum.Count, sum.Mean = int(n), time.Duration(h.Sum()/n)
	}
	return sum
}

// batchLimit returns the effective batch-size limit: the controller's
// actuation when adaptive, the static MaxBatch otherwise.
func (s *Service) batchLimit() int {
	if s.plane != nil {
		return s.plane.BatchLimit()
	}
	return s.cfg.MaxBatch
}

// lingerFor returns the effective linger for a fresh batch.
func (s *Service) lingerFor() time.Duration {
	if s.plane != nil {
		return s.plane.Linger()
	}
	return s.cfg.Linger
}

// roundsHist returns (registering at an algorithm's first decision) its
// rounds-per-decision histogram — the paper's price gap as a live
// series: the A_f+2 rung's mass sits at f+2 rounds while A_t+2's sits
// at its t+2 floor. Callers hold sampleMu.
func (s *Service) roundsHist(alg string) *metrics.Histogram {
	h, ok := s.algHist[alg]
	if !ok {
		labels := append([]metrics.Label{{Key: "alg", Value: alg}}, s.metricsLabels...)
		h = s.reg.Histogram("indulgence_rounds_per_decision",
			"global decision round per decided instance, by algorithm rung", 1, 256, labels...)
		s.algHist[alg] = h
	}
	return h
}

// recordCut accounts one dispatched batch's fill with both sinks
// (Stats.BatchFill and the control plane's window), whether the batch
// was flushed onto a fresh slot or rode a joined one.
func (s *Service) recordCut(n int) {
	fill := cutFill(n, s.batchLimit())
	s.sampleMu.Lock()
	s.fills.Add(fill)
	s.sampleMu.Unlock()
	if s.plane != nil {
		s.plane.ObserveCut(fill)
	}
}

// batcher owns slot assignment. It cuts the intake stream into batches:
// a batch closes when it reaches the effective batch limit or its oldest
// proposal has waited the effective linger (both live values of the
// control plane when one is attached), takes the next free instance ID
// and launches. With a remote process it additionally serves join
// signals: a join adopts the peer's slot and pushes nextInstance past
// it, which keeps every member's counter roughly in step with the
// cluster's.
func (s *Service) batcher() {
	defer close(s.batcherDone)
	var (
		batch   []*pending
		lingerT clock.Timer
		lingerC <-chan time.Time
	)
	stopLinger := func() {
		if lingerT != nil {
			lingerT.Stop()
			lingerT, lingerC = nil, nil
		}
	}
	flush := func() {
		stopLinger()
		if len(batch) == 0 {
			return
		}
		b := batch
		batch = nil
		s.recordCut(len(b))
		instance := s.nextInstance
		s.nextInstance++
		eps, err := s.open(instance)
		if err != nil {
			s.failInstance(b, err)
			return
		}
		s.launch(instance, eps, b, false)
	}
	for {
		select {
		case p, ok := <-s.intake:
			if !ok {
				flush()
				return
			}
			batch = append(batch, p)
			if len(batch) == 1 {
				lingerT = s.cfg.Clock.NewTimer(s.lingerFor())
				lingerC = lingerT.C()
			}
			if len(batch) >= s.batchLimit() {
				flush()
			}
		case <-lingerC:
			lingerT, lingerC = nil, nil
			var closed bool
			batch, closed = drainIntake(s.intake, batch, s.batchLimit())
			flush()
			if closed {
				return
			}
		case slot := <-s.joins:
			eps, err := s.open(slot)
			if err != nil {
				continue // running here already, or retired: a duplicate or stale signal
			}
			// A lingering local batch rides the joined slot instead of
			// waiting for its own: the join must propose something
			// anyway, and a real proposal beats a noop. Only a slot at
			// or past nextInstance may carry it; one below it was
			// skipped when a later join pushed the counter past it.
			var b []*pending
			if slot >= s.nextInstance {
				s.nextInstance = slot + 1
				stopLinger()
				b, batch = batch, nil
			}
			if len(b) > 0 {
				// The ride is a batch cut like any other: the fill
				// signal must see it or a mostly-joining member's
				// controller runs blind.
				s.recordCut(len(b))
			}
			s.launch(slot, eps, b, true)
		}
	}
}

// open opens the instance's stream on every hosted mux and returns the
// endpoints indexed by process ID − 1 (remote processes' entries stay
// nil). The mux is the one record of which instances run here, so open
// is also the check that the instance is new: it fails when a stream is
// already open or already retired. On failure the streams it did open
// are retired again.
func (s *Service) open(instance uint64) ([]transport.Transport, error) {
	eps := make([]transport.Transport, s.cfg.N)
	for k, m := range s.muxes {
		ep, err := m.Open(instance)
		if err != nil {
			for _, opened := range s.muxes[:k] {
				opened.Retire(instance)
			}
			return nil, fmt.Errorf("service: open instance %d on p%d: %w", instance, m.Self(), err)
		}
		eps[m.Self()-1] = ep
	}
	return eps, nil
}

// retire retires the instance's streams on every hosted mux; later
// frames for it are dropped.
func (s *Service) retire(instance uint64) {
	for _, m := range s.muxes {
		m.Retire(instance)
	}
}

// launch claims an instance slot ticket (blocking — the MaxInflight
// backpressure), picks the instance's algorithm, journals its claim and
// decision trace (see claim), and starts the run over the endpoints open
// returned. A launch that cannot start retires those streams. Only the
// batcher calls it.
func (s *Service) launch(instance uint64, eps []transport.Transport, b []*pending, joined bool) {
	select {
	case s.slots <- struct{}{}:
	case <-s.runCtx.Done():
		s.retire(instance)
		failBatch(b, s.runCtx.Err())
		return
	}
	choice := s.static
	var cctx adapt.ChoiceContext
	if s.plane != nil {
		// One lock acquisition yields both the pick and the control-
		// plane context behind it, so the decision-trace record can
		// never disagree with the choice it annotates.
		choice, cctx = s.plane.PickContext()
	}
	if s.cfg.Journal != nil {
		if err := s.claim(instance, len(b), choice, cctx); err != nil {
			s.retire(instance)
			<-s.slots
			s.failInstance(b, err)
			return
		}
	}
	s.wg.Add(1)
	go s.runInstance(instance, eps, b, choice, joined)
}

// failBatch resolves every future of a batch with err.
func failBatch(batch []*pending, err error) {
	for _, p := range batch {
		p.fut.resolve(Decision{}, err)
	}
}

// cutFill returns a batch cut's fill percentage against the effective
// limit, floored at 1: a cut always carries at least one proposal, and
// integer division against a limit above 100 must not read as "no cut"
// (the controller treats fill 0 as an idle window).
func cutFill(n, limit int) int {
	if fill := 100 * n / max(limit, 1); fill >= 1 {
		return fill
	}
	return 1
}

// drainIntake appends the immediately available proposals to batch, up
// to limit, without blocking; closed reports that intake was closed and
// fully drained (the caller flushes and exits). The batcher runs it
// when a cut is due, so a short (or zero) linger still yields full
// batches under load instead of racing the timer one proposal at a
// time.
func drainIntake(intake <-chan *pending, batch []*pending, limit int) (out []*pending, closed bool) {
	for len(batch) < limit {
		select {
		case p, ok := <-intake:
			if !ok {
				return batch, true
			}
			batch = append(batch, p)
		default:
			return batch, false
		}
	}
	return batch, false
}

// claim journals an instance's start claim and, with a control plane
// attached, its decision trace — both before any of the instance's
// frames can reach the network, joined slots included: the recovered
// frontier must cover crash-undecided instances too, or their in-flight
// frames could leak into a successor service's instance of the same ID.
// The static path claims MaxInflight-sized blocks with one written (not
// fsynced — see journal.AppendStart) record: the block spans MaxInflight
// consecutive IDs, so its highest member is instance + MaxInflight-1,
// tagged with the statically configured algorithm every instance of the
// block runs. With algorithm selection every instance claims
// individually so its chosen algorithm is on record before the choice
// can act, keeping check.Replay's cross-restart algorithm audit exact.
// Restart recovery depends on this arithmetic. Only the batcher
// goroutine calls it (it owns claimedThrough).
func (s *Service) claim(instance uint64, batchLen int, choice adapt.Choice, cctx adapt.ChoiceContext) error {
	switch {
	case s.plane != nil && s.plane.Selecting():
		rec := wire.StartRecord{Instance: instance, Alg: choice.Name}
		if err := s.cfg.Journal.AppendStartRecord(rec); err != nil {
			return fmt.Errorf("service: claim instance %d: %w", instance, err)
		}
		if instance >= s.claimedThrough {
			s.claimedThrough = instance + 1
		}
	case instance >= s.claimedThrough:
		last := instance + uint64(s.cfg.MaxInflight) - 1
		rec := wire.StartRecord{Instance: last, Alg: s.static.Name}
		if err := s.cfg.Journal.AppendStartRecord(rec); err != nil {
			return fmt.Errorf("service: claim instances through %d: %w", last, err)
		}
		s.claimedThrough = last + 1
	}
	if s.plane == nil {
		return nil
	}
	// Decision-trace record: the controller/selector/admission context
	// behind this launch, journaled after the start claim so replay can
	// audit why each rung was chosen. Same durability class as start
	// claims (written, not fsynced).
	trace := wire.DecisionTraceRecord{
		Instance:    instance,
		Level:       cctx.Level,
		Chosen:      cctx.Chosen,
		NotTaken:    cctx.NotTaken,
		Suspicions:  uint64(cctx.Suspicions),
		QueueLen:    uint64(len(s.intake)),
		QueueCap:    uint64(cap(s.intake)),
		BatchFill:   cutFill(batchLen, cctx.BatchLimit),
		BatchLimit:  cctx.BatchLimit,
		LingerNanos: int64(cctx.Linger),
		EWMANanos:   int64(cctx.EWMA),
		ShedMask:    uint64(cctx.ShedMask),
	}
	if err := s.cfg.Journal.AppendDecisionTrace(trace); err != nil {
		return fmt.Errorf("service: trace instance %d: %w", instance, err)
	}
	return nil
}
