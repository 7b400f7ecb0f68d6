package shard

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"

	"indulgence/internal/journal"
	"indulgence/internal/model"
	"indulgence/internal/service"
	"indulgence/internal/transport"
	"indulgence/internal/wire"
)

// Config describes a sharded runtime.
type Config struct {
	// Service is the per-group service template: every group runs a
	// service.Service with this configuration. Its Group and Groups
	// fields must be zero — the runtime assigns them. Its Journal and
	// Metrics registry are shared by every group: strided instance IDs
	// never collide in the one journal, which stays the caller's to open
	// and close, and each group's series carry its own group label, while
	// the shared muxes count frames once for the whole runtime.
	Service service.Config
	// Groups is the number of consensus groups (default 1). In a
	// multi-process cluster every member must agree on it — a slot's
	// owning group is slot mod Groups on every member.
	Groups int
	// Placement routes proposals to groups (default round-robin).
	// Members of one cluster may differ here; placement only decides
	// where a proposal enters, and any member joins any group's slot on
	// the wire signal.
	Placement Policy
}

// ErrGroupLayout refuses a journal directory in the retired per-group
// layout (one group-NNNN subdirectory per group): resuming there would
// restart the frontier below IDs that already touched the network, and
// auditing its empty top level would pass vacuously. Each subdirectory
// still reads on its own as a plain journal.
var ErrGroupLayout = errors.New("shard: journal directory holds per-group group-NNNN subdirectories (the retired layout; read each one on its own)")

// checkLayout refuses a journal directory holding group-NNNN
// subdirectories with ErrGroupLayout.
func checkLayout(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if e.IsDir() && strings.HasPrefix(e.Name(), "group-") {
			return fmt.Errorf("%w: %s", ErrGroupLayout, filepath.Join(dir, e.Name()))
		}
	}
	return nil
}

// Runtime is the runtime every caller above the service layer starts
// (the CLI's serve, bench-service and cluster paths, the chaos harness):
// G ≥ 1 service.Service groups over one shared mux per hosted process,
// with the placement router in front. One group is a parameter value,
// not a second system — a Service is one group of a Runtime, and
// service.New is the library constructor for exactly that group on its
// own. Like the service, the runtime hosts the processes whose endpoints
// it is handed; with a process hosted elsewhere it installs the muxes'
// join signal and routes each instance's signal to the group service
// that owns it (instance mod G), so a proposal entering any member
// reaches every member's matching group.
type Runtime struct {
	groups []*service.Service
	muxes  []*transport.Mux
	policy Policy
	views  []Group
	seq    atomic.Uint64
	closed atomic.Bool
}

// New starts a sharded runtime hosting the processes whose transport
// endpoints it is handed, under service.New's rule: every Self() in
// 1..cfg.Service.N, ascending, no repeats; all N is the single-process
// runtime, fewer a member of a multi-process cluster. The endpoints stay
// owned by the caller; the runtime wraps each in a mux shared by all its
// groups, retiring each group's residue class on its own frontier (counting frames once, runtime-wide, on
// cfg.Service.Metrics) and owns all reads from it.
func New(cfg Config, endpoints []transport.Transport) (*Runtime, error) {
	if cfg.Groups == 0 {
		cfg.Groups = 1
	}
	if cfg.Groups < 1 {
		return nil, fmt.Errorf("shard: need at least 1 group, got %d", cfg.Groups)
	}
	if cfg.Service.Group != 0 || cfg.Service.Groups != 0 {
		return nil, errors.New("shard: the service template's Group and Groups must be unset")
	}
	if j := cfg.Service.Journal; j != nil {
		if err := checkLayout(j.Dir()); err != nil {
			return nil, err
		}
	}
	if cfg.Placement == nil {
		cfg.Placement = NewRoundRobin()
	}
	for _, ep := range endpoints {
		if ep == nil {
			return nil, errors.New("shard: nil endpoint")
		}
	}
	r := &Runtime{
		muxes:  make([]*transport.Mux, len(endpoints)),
		policy: cfg.Placement,
	}
	for i, ep := range endpoints {
		r.muxes[i] = transport.NewMux(ep, cfg.Groups, cfg.Service.Metrics)
	}
	for g := 0; g < cfg.Groups; g++ {
		svcCfg := cfg.Service
		svcCfg.Group = uint64(g)
		svcCfg.Groups = cfg.Groups
		svc, err := service.NewOnMuxes(svcCfg, r.muxes)
		if err != nil {
			r.teardown()
			return nil, fmt.Errorf("shard: start group %d: %w", g, err)
		}
		r.groups = append(r.groups, svc)
		r.views = append(r.views, svc)
	}
	// Join signals exist only with a process hosted elsewhere (see
	// service.New). Installing them once every group is up needs no
	// backlog: each mux replays the signal for every stream that buffered
	// frames in the meantime.
	if len(endpoints) < cfg.Service.N {
		for _, m := range r.muxes {
			m.OnPending(r.deliver)
		}
	}
	return r, nil
}

// deliver is the shared muxes' join signal: it hands the signal to the
// group service owning the instance, as Lookup finds it. It never blocks
// — Join only does a non-blocking channel send — so it may run on a mux
// router goroutine.
func (r *Runtime) deliver(instance uint64) {
	r.groups[instance%uint64(len(r.groups))].Join(instance)
}

// teardown unwinds a partially constructed runtime.
func (r *Runtime) teardown() {
	for _, svc := range r.groups {
		_ = svc.Close()
	}
	for _, m := range r.muxes {
		_ = m.Close()
	}
}

// Groups returns the number of consensus groups.
func (r *Runtime) Groups() int { return len(r.groups) }

// Policy returns the placement policy's name.
func (r *Runtime) Policy() string { return r.policy.Name() }

// Group returns one group's service — the per-group escape hatch the
// tests and the chaos harness use to address a specific group.
func (r *Runtime) Group(g int) *service.Service { return r.groups[g] }

// Propose routes a class-0 proposal to a group under the placement
// policy and enqueues it there. Proposals without a natural key use an
// internal sequence number, so affinity policies still spread them.
func (r *Runtime) Propose(ctx context.Context, v model.Value) (*service.Future, error) {
	return r.ProposeKeyClass(ctx, r.seq.Add(1)-1, 0, v)
}

// ProposeKeyClass routes a proposal by key at an SLO class — the full
// submission surface. Affinity placement sends every proposal of one key
// through one group's batcher (ordering everything about the key), other
// policies ignore the key. The class gates admission in the chosen group
// (see service.ProposeClass) after placement: routing is class-blind,
// so a high-class proposal still lands on its key's group rather than
// shopping for an unshedding one.
func (r *Runtime) ProposeKeyClass(ctx context.Context, key uint64, class int, v model.Value) (*service.Future, error) {
	if r.closed.Load() {
		return nil, service.ErrClosed
	}
	return r.groups[r.policy.Pick(key, r.views)].ProposeClass(ctx, class, v)
}

// Lookup serves the journaled decision of an already-decided instance
// from whichever group owns it (the strided allocation makes the owner
// computable, not searchable-for).
func (r *Runtime) Lookup(instance uint64) (service.Decision, bool) {
	return r.groups[instance%uint64(len(r.groups))].Lookup(instance)
}

// Rollup is a point-in-time snapshot across every group: the per-group
// service snapshots plus the aggregate counters the bench and smoke
// paths assert on.
type Rollup struct {
	// Groups holds each group's service snapshot, indexed by group ID.
	Groups []service.Stats
	// Proposals, Resolved, Failed, Instances, InstanceFailures,
	// JoinedInstances and Overloads are the sums of the per-group
	// counters.
	Proposals, Resolved, Failed int
	Instances, InstanceFailures int
	JoinedInstances, Overloads  int
	// Adjustments, Ticks and Transitions sum the groups' control-plane
	// counters (each group runs its own plane; all zero when static).
	Adjustments, Ticks, Transitions int
	// Algorithms counts decided instances per algorithm name across
	// groups.
	Algorithms map[string]int
	// OverloadsByClass sums the groups' service.Stats.OverloadsByClass:
	// indexed by class, length = the planes' configured Classes, nil when
	// they distinguish a single class or the groups run static.
	OverloadsByClass []int
	// Violations collects every group's consensus-property violations,
	// each prefixed with its group ("group 3: instance 7: ...").
	Violations []string
}

// Snapshot returns the cross-group rollup.
func (r *Runtime) Snapshot() Rollup {
	out := Rollup{Algorithms: make(map[string]int)}
	for g, svc := range r.groups {
		st := svc.Snapshot()
		out.Groups = append(out.Groups, st)
		out.Proposals += st.Proposals
		out.Resolved += st.Resolved
		out.Failed += st.Failed
		out.Instances += st.Instances
		out.InstanceFailures += st.InstanceFailures
		out.JoinedInstances += st.JoinedInstances
		out.Overloads += st.Overloads
		out.Adjustments += st.Control.Adjustments
		out.Ticks += st.Control.Ticks
		out.Transitions += st.Control.Transitions
		for alg, n := range st.Algorithms {
			out.Algorithms[alg] += n
		}
		out.OverloadsByClass = addByClass(out.OverloadsByClass, st.OverloadsByClass)
		for _, v := range st.Violations {
			out.Violations = append(out.Violations, fmt.Sprintf("group %d: %s", g, v))
		}
	}
	return out
}

// addByClass accumulates one group's per-class counters into the
// rollup's, growing the slice to the widest class seen.
func addByClass(sum, add []int) []int {
	for len(sum) < len(add) {
		sum = append(sum, 0)
	}
	for c, v := range add {
		sum[c] += v
	}
	return sum
}

// Close stops every group (flushing pending batches and waiting for
// inflight instances), then the shared muxes. The endpoints and the
// journal stay with the caller, who closes the journal after this.
// Idempotent.
func (r *Runtime) Close() error {
	if !r.closed.CompareAndSwap(false, true) {
		return nil
	}
	var first error
	for _, svc := range r.groups {
		if err := svc.Close(); err != nil && first == nil {
			first = err
		}
	}
	for _, m := range r.muxes {
		_ = m.Close()
	}
	return first
}

// Abort hard-stops every group without flushing — the crash shutdown
// shape, recoverable only through the journal (see service.Abort).
// Records already durable survive; the journal stays with the caller,
// who closes it before a successor runtime reopens the directory.
func (r *Runtime) Abort() {
	if !r.closed.CompareAndSwap(false, true) {
		return
	}
	for _, svc := range r.groups {
		svc.Abort()
	}
	for _, m := range r.muxes {
		_ = m.Close()
	}
}

// History is a runtime's journaled history read back from disk: every
// group's decisions, start claims and decision traces in append order.
type History struct {
	// Records and Starts are the input shape check.Replay audits.
	// Feeding all groups of one member to a single Replay call is
	// exactly what arms its cross-group instance-ID audit.
	Records []wire.DecisionRecord
	Starts  []wire.StartRecord
	// Traces are the decision-trace entries — introspection context, not
	// claims or outcomes, so the consensus audit does not read them.
	Traces []wire.DecisionTraceRecord
	// Segments and TornBytes count the segment files read and the torn
	// final-segment tail dropped; Frontier is 1 + the highest instance
	// ID on file in any group (0 when empty).
	Segments, TornBytes int
	Frontier            uint64
}

// ReplayDir reads back the journal a runtime's groups share — the one
// place journal entries become audit records, for every caller and every
// group count. It opens nothing for writing and tolerates a torn final
// tail as recovery does. A directory in the retired per-group layout
// fails with ErrGroupLayout.
func ReplayDir(dir string) (History, error) {
	if err := checkLayout(dir); err != nil {
		return History{}, err
	}
	var h History
	info, err := journal.Replay(dir, func(e journal.Entry) error {
		switch {
		case e.Trace != nil:
			h.Traces = append(h.Traces, *e.Trace)
		case e.Start:
			// Keep the group tag: check.Replay audits the claim's group
			// against every other record of the instance.
			h.Starts = append(h.Starts, wire.StartRecord{
				Instance: e.Instance(), Alg: e.Alg, Group: e.Decision.Group})
		default:
			h.Records = append(h.Records, e.Decision)
		}
		return nil
	})
	if err != nil {
		return History{}, fmt.Errorf("shard: replay %s: %w", dir, err)
	}
	h.Segments, h.TornBytes, h.Frontier = info.Segments, info.TornBytes, info.Frontier
	return h, nil
}
