package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"indulgence"
	"indulgence/internal/workload"
)

// member is the part of Service and PeerService the generator drives.
type member interface {
	Propose(ctx context.Context, v indulgence.Value) (*indulgence.ServiceFuture, error)
	Snapshot() indulgence.ServiceStats
	Close() error
}

// record is what the generator keeps per proposal. Times are offsets
// from the stack's epoch; due is when the proposal was scheduled (open
// loop) or issued (closed loop), and latency runs from it. The struct
// holds no pointers, so the collector never scans the generator's
// bookkeeping.
type record struct {
	seq                         int
	due, called, proposed, done time.Duration
	instance                    uint64
	value                       indulgence.Value
	round, batch                int32
	failed                      bool
}

// stack is one set-up instance of a live workload: transports, journal,
// service(s) and the generator's sequence counter.
type stack struct {
	spec       *liveSpec
	seed       int64
	epoch      time.Time
	members    []member
	journal    *indulgence.Journal
	journalDir string
	recovery   time.Duration // OpenJournal on the pre-filled directory
	crashOn    atomic.Bool
	tracer     *tracer
	seq        atomic.Int64
	closeNet   func() error
	// warmRate is the proposal rate warm-up reached; it sizes the closed
	// loop's record buffers so the measured interval does not grow them.
	warmRate float64

	errMu    sync.Mutex
	firstErr error // first proposal error, for diagnostics
}

func algorithm() indulgence.Factory { return indulgence.NewAtPlus2(indulgence.AtPlus2Options{}) }

// algorithmName probes a factory for the name its algorithms report.
func algorithmName(f indulgence.Factory) string {
	alg, err := f(indulgence.ProcessContext{Self: 1, N: clusterN, T: clusterT}, 0)
	if err != nil {
		return ""
	}
	return alg.Name()
}

// setup builds the workload's stack and warms it up with a fixed count
// of decisions; it returns the stack ready for measurement. journalSeed
// is the pre-filled journal directory durable workloads copy and
// recover from.
func setup(spec *liveSpec, e *env, t *tracer, journalSeed string) (*stack, error) {
	st := &stack{spec: spec, seed: e.seed, tracer: t, epoch: time.Now()}
	if t != nil {
		st.epoch = t.epoch // spans and records share one time base
	}
	ok := false
	defer func() {
		if !ok {
			_ = st.close() // the set-up error is the one worth reporting
		}
	}()

	eps := make([]indulgence.Transport, clusterN)
	if spec.peers {
		tc, err := indulgence.NewTCPCluster(clusterN)
		if err != nil {
			return nil, err
		}
		st.closeNet = tc.Close
		for i := range eps {
			if eps[i], err = tc.Endpoint(indulgence.ProcessID(i + 1)); err != nil {
				return nil, err
			}
		}
	} else {
		hub, hubEps, err := hubEndpoints(clusterN)
		if err != nil {
			return nil, err
		}
		st.closeNet = hub.Close
		if d := spec.delay; d > 0 {
			hub.SetDelayFn(func(from, to indulgence.ProcessID) time.Duration { return d })
		}
		eps = hubEps
	}
	eps = traceEndpoints(t, eps)

	if spec.durable {
		dir, err := os.MkdirTemp(e.dir, "journal-")
		if err != nil {
			return nil, err
		}
		st.journalDir = dir
		if err := os.CopyFS(dir, os.DirFS(journalSeed)); err != nil {
			return nil, err
		}
		begin := time.Now()
		if st.journal, err = indulgence.OpenJournal(dir, indulgence.JournalOptions{}); err != nil {
			return nil, err
		}
		st.recovery = time.Since(begin)
	}

	factory := traceFactory(t, algorithm())
	if spec.peers {
		for _, ep := range eps {
			m, err := indulgence.NewPeerService(indulgence.PeerServiceOptions{
				T: clusterT, Factory: factory, BaseTimeout: baseTimeout,
				MaxBatch: maxBatch, Linger: linger, MaxInflight: maxInflight,
			}, clusterN, ep)
			if err != nil {
				return nil, err
			}
			st.members = append(st.members, m)
		}
	} else {
		cfg := indulgence.ServiceConfig{
			N: clusterN, T: clusterT, Factory: factory, BaseTimeout: baseTimeout,
			MaxBatch: maxBatch, Linger: linger, MaxInflight: maxInflight,
			Journal: st.journal,
		}
		if spec.adaptive {
			cfg.Adaptive = &indulgence.AdaptiveConfig{SelectAlgorithms: true}
		}
		if spec.crash {
			cfg.OnInstance = func(_ uint64, cl *indulgence.Cluster) {
				if st.crashOn.Load() {
					_ = cl.Crash(clusterN) // fails only for a process ID outside 1..n
				}
			}
		}
		svc, err := indulgence.NewService(cfg, eps)
		if err != nil {
			return nil, err
		}
		st.members = []member{svc}
	}

	warm := warmDecisions
	if spec.warm > 0 {
		warm = spec.warm
	}
	var (
		mu      sync.Mutex
		decided = make(map[uint64]struct{}, warm)
	)
	begin := time.Now()
	recs := flatten(st.closedLoop(0, func(r *record) bool {
		mu.Lock()
		defer mu.Unlock()
		if r != nil && !r.failed {
			decided[r.instance] = struct{}{}
		}
		return len(decided) >= warm
	}))
	st.warmRate = float64(len(recs)) / time.Since(begin).Seconds()
	if st.firstErr != nil {
		return nil, fmt.Errorf("warm-up: %w", st.firstErr)
	}
	if findings := st.audit(recs); len(findings) > 0 {
		return nil, fmt.Errorf("warm-up audit: %s", findings[0])
	}
	st.crashOn.Store(spec.crash)
	ok = true
	return st, nil
}

// stop shuts the running parts down — members (concurrently: a peer
// member's Close waits out its flood grace), journal, transports — and
// leaves the journal's files for the durability audit. Idempotent.
func (st *stack) stop() error {
	var wg sync.WaitGroup
	errs := make([]error, len(st.members))
	for i, m := range st.members {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = m.Close()
		}()
	}
	wg.Wait()
	st.members = nil
	if st.journal != nil {
		errs = append(errs, st.journal.Close())
		st.journal = nil
	}
	if st.closeNet != nil {
		errs = append(errs, st.closeNet())
		st.closeNet = nil
	}
	return errors.Join(errs...)
}

// close stops the stack and removes its journal files.
func (st *stack) close() error {
	err := st.stop()
	if st.journalDir != "" {
		err = errors.Join(err, os.RemoveAll(st.journalDir))
		st.journalDir = ""
	}
	return err
}

// propose issues the next proposal on the member its sequence number
// selects (round-robin, so peer members collide on slots), waits for
// its decision and fills r.
func (st *stack) propose(r *record) {
	ctx := context.Background()
	r.seq = int(st.seq.Add(1) - 1)
	m := st.members[r.seq%len(st.members)]
	r.called = time.Since(st.epoch)
	fut, err := m.Propose(ctx, workload.Value(st.seed, r.seq))
	r.proposed = time.Since(st.epoch)
	var dec indulgence.ServiceDecision
	if err == nil {
		dec, err = fut.Wait(ctx)
	}
	r.done = time.Since(st.epoch)
	if err != nil {
		st.fail(r, err)
		return
	}
	r.instance, r.value, r.round, r.batch = dec.Instance, dec.Value, int32(dec.Round), int32(dec.Batch)
}

func (st *stack) fail(r *record, err error) {
	r.failed = true
	st.errMu.Lock()
	if st.firstErr == nil {
		st.firstErr = err
	}
	st.errMu.Unlock()
}

// closedLoop keeps a fixed window of `clients` proposals outstanding
// until stop reports true; stop sees every finished record (and nil
// before a client's first proposal). capHint pre-sizes each client's
// record buffer; the records come back per client.
func (st *stack) closedLoop(capHint int, stop func(*record) bool) [][]record {
	perClient := make([][]record, clients)
	for c := range perClient {
		perClient[c] = make([]record, 0, capHint)
	}
	var wg sync.WaitGroup
	for c := range perClient {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last *record
			for !stop(last) {
				perClient[c] = append(perClient[c], record{})
				last = &perClient[c][len(perClient[c])-1]
				st.propose(last)
				last.due = last.called
			}
		}()
	}
	wg.Wait()
	return perClient
}

// flatten joins the clients' records; it allocates, so measure calls it
// only after the interval's closing usage reading.
func flatten(perClient [][]record) []record {
	var all []record
	for _, rs := range perClient {
		all = append(all, rs...)
	}
	return all
}

// maxOutstanding bounds the open loop's waiter goroutines; a proposal
// due while that many are unresolved counts as failed.
const maxOutstanding = 8192

var errOverrun = errors.New("perfbench: open loop overran its outstanding-proposal bound")

// openLoop fires the schedule from one scheduler goroutine (the
// caller's): each proposal is issued at its due time whether or not
// earlier ones have resolved, and timed from that due time. recs and
// late are filled index for index with at.
func (st *stack) openLoop(at []time.Duration, recs []record, late []time.Duration) {
	slots := make(chan struct{}, maxOutstanding) // counting semaphore
	var wg sync.WaitGroup
	t0 := time.Since(st.epoch)
	for i, off := range at {
		due := t0 + off
		if d := due - time.Since(st.epoch); d > 0 {
			sleepPrecisely(d)
		}
		r := &recs[i]
		late[i] = time.Since(st.epoch) - due
		select {
		case slots <- struct{}{}:
		default:
			r.seq = int(st.seq.Add(1) - 1)
			r.due, r.called, r.proposed, r.done = due, due, due, time.Since(st.epoch)
			st.fail(r, errOverrun)
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			st.propose(r)
			r.due = due
			<-slots
		}()
	}
	wg.Wait()
}

// sleepPrecisely blocks for d in the kernel. time.Sleep rounds an idle
// process's sub-millisecond waits up to a whole millisecond (the
// runtime's poller takes its timeout in ms), which at thousands of
// arrivals per second would be the largest term in the measured
// latency; nanosleep overshoots by tens of microseconds.
func sleepPrecisely(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	_ = syscall.Nanosleep(&ts, nil) // an early wake-up (EINTR) only fires the proposal's lateness check sooner
}

// window is the span latency percentiles are taken over before their
// median is reported: one schedule cycle, or a second where load is
// constant.
func (spec *liveSpec) window(interval time.Duration) time.Duration {
	if spec.cycles > 0 {
		return interval / time.Duration(spec.cycles)
	}
	return min(time.Second, interval)
}

// schedule derives the open loop's arrival offsets from the seed: one
// Poisson cohort warped through the spec's phases — a pure function of
// (seed, rate, cycle, interval).
func schedule(seed int64, spec *liveSpec, interval time.Duration) []time.Duration {
	ws := workload.Spec{
		Seed:    seed,
		Cohorts: []workload.Cohort{{Clients: 1, Arrival: workload.Arrival{Process: workload.Poisson, Rate: spec.rate}}},
	}
	if spec.cycle == nil {
		ws.Phases = []workload.Phase{{Duration: interval, Rate: 1}}
	}
	for c := 0; c < spec.cycles; c++ {
		for _, p := range spec.cycle {
			ws.Phases = append(ws.Phases, workload.Phase{
				Duration: time.Duration(p.share * float64(spec.window(interval))), Rate: p.rate})
		}
	}
	events := ws.Events()
	at := make([]time.Duration, len(events))
	for i, ev := range events {
		at[i] = ev.At
	}
	return at
}

// usage is a point-in-time reading of what the process has consumed.
type usage struct {
	at    time.Time
	mem   runtime.MemStats
	cpuNs int64
}

func readUsage() usage {
	var u usage
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // fails only for an invalid `who`
	u.cpuNs = ru.Utime.Nano() + ru.Stime.Nano()
	runtime.ReadMemStats(&u.mem)
	u.at = time.Now()
	return u
}

// interval is one measured interval of a live workload: the generator's
// records plus the process's consumption and the services' counters on
// either side of it.
type interval struct {
	recs          []record
	late          []time.Duration
	length        time.Duration // how long load was issued for
	start         time.Duration // its start, as an offset from the stack's epoch
	before, after usage
	statsBefore   []indulgence.ServiceStats
	statsAfter    []indulgence.ServiceStats
	journalBefore indulgence.JournalStats
	journalAfter  indulgence.JournalStats
	journalBytes  int64 // bytes the journal's files grew by
	goroutines    []float64
}

// measure drives the workload's load for the given time and returns
// what happened. With sampleGoroutines, a sampler reads the goroutine
// count every 100ms (traced pass only).
func (st *stack) measure(length time.Duration, sampleGoroutines bool) *interval {
	iv := &interval{length: length}
	var at []time.Duration
	capHint := 0
	if st.spec.rate > 0 {
		at = schedule(st.seed, st.spec, length)
		iv.recs = make([]record, len(at))
		iv.late = make([]time.Duration, len(at))
	} else {
		capHint = int(2 * st.warmRate * length.Seconds() / clients)
	}
	stopSampler := make(chan struct{})
	var samplerDone sync.WaitGroup
	if sampleGoroutines {
		samplerDone.Add(1)
		go func() {
			defer samplerDone.Done()
			tick := time.NewTicker(100 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stopSampler:
					return
				case <-tick.C:
					iv.goroutines = append(iv.goroutines, float64(runtime.NumGoroutine()))
				}
			}
		}()
	}
	if st.tracer != nil {
		st.tracer.reset()
	}
	iv.statsBefore = st.snapshots()
	if st.journal != nil {
		iv.journalBefore = st.journal.Snapshot()
		iv.journalBytes = -dirBytes(st.journalDir)
	}
	iv.before = readUsage()
	iv.start = iv.before.at.Sub(st.epoch)
	var perClient [][]record
	if st.spec.rate > 0 {
		st.openLoop(at, iv.recs, iv.late)
	} else {
		deadline := iv.before.at.Add(length)
		perClient = st.closedLoop(capHint, func(*record) bool { return !time.Now().Before(deadline) })
	}
	iv.after = readUsage()
	if perClient != nil {
		iv.recs = flatten(perClient)
	}
	close(stopSampler)
	samplerDone.Wait()
	iv.statsAfter = st.snapshots()
	if st.journal != nil {
		iv.journalAfter = st.journal.Snapshot()
		iv.journalBytes += dirBytes(st.journalDir)
	}
	return iv
}

func (st *stack) snapshots() []indulgence.ServiceStats {
	out := make([]indulgence.ServiceStats, len(st.members))
	for i, m := range st.members {
		out[i] = m.Snapshot()
	}
	return out
}

// decision is one decided instance as the generator's records saw it.
type decision struct {
	instance uint64
	value    indulgence.Value
	round    int32 // the slowest member's decision round
	batch    int32 // proposals that rode the instance, over all members
	first    time.Duration
}

// decisions folds records into the distinct instances they resolved to,
// in order of first resolution; members is how many services the
// records were spread over.
func decisions(recs []record, members int) []decision {
	byInstance := make(map[uint64]*decision)
	type rider struct {
		instance uint64
		member   int
	}
	counted := make(map[rider]bool)
	for i := range recs {
		r := &recs[i]
		if r.failed {
			continue
		}
		d, ok := byInstance[r.instance]
		if !ok {
			d = &decision{instance: r.instance, value: r.value, first: r.done}
			byInstance[r.instance] = d
		}
		d.first = min(d.first, r.done)
		d.round = max(d.round, r.round)
		// One member's futures of an instance all carry that member's
		// local batch size; count it once per member.
		if k := (rider{r.instance, r.seq % members}); !counted[k] {
			counted[k] = true
			d.batch += r.batch
		}
	}
	out := make([]decision, 0, len(byInstance))
	for _, d := range byInstance {
		out = append(out, *d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].first < out[j].first })
	return out
}

// prefillJournal writes the synthetic history mem_durable recovers
// from: prefillRecords decisions with a start claim per maxInflight
// block, through the journal's own append path (NoSync — not timed).
func prefillJournal(dir string) error {
	j, err := indulgence.OpenJournal(dir, indulgence.JournalOptions{NoSync: true})
	if err != nil {
		return err
	}
	name := algorithmName(algorithm())
	for i := uint64(0); i < prefillRecords; i++ {
		if i%maxInflight == 0 {
			err = j.AppendStart(i+maxInflight-1, name)
		}
		if err == nil {
			err = j.Append(indulgence.DecisionRecord{Instance: i, Value: indulgence.Value(i + 1), Round: clusterT + 2, Batch: maxBatch})
		}
		if err != nil {
			j.Close()
			return err
		}
	}
	return j.Close()
}

// dirBytes sums the sizes of dir's regular files.
func dirBytes(dir string) int64 {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var n int64
	for _, ent := range entries {
		if info, err := ent.Info(); err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
	}
	return n
}
