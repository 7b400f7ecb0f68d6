package service_test

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"indulgence/internal/adapt"
	"indulgence/internal/check"
	"indulgence/internal/core"
	"indulgence/internal/journal"
	"indulgence/internal/model"
	"indulgence/internal/service"
	"indulgence/internal/transport"
	"indulgence/internal/wire"
)

// journalConfig is the service configuration the recovery tests run:
// small cluster, fast timeouts, small batches so a modest load spreads
// over many instances.
func journalConfig(n int, jn *journal.Journal) service.Config {
	return service.Config{
		N: n, T: 1,
		Factory:         core.New(core.Options{}),
		BaseTimeout:     3 * time.Millisecond,
		MaxBatch:        2,
		Linger:          300 * time.Microsecond,
		MaxInflight:     8,
		InstanceTimeout: 30 * time.Second,
		Journal:         jn,
	}
}

// TestServiceJournalRecovery is the plain restart path: a service
// journals its decisions, shuts down cleanly, and a successor over the
// same endpoints serves the journaled decisions via Lookup, resumes the
// instance frontier past them, and keeps the joint log clean under
// check.Replay.
func TestServiceJournalRecovery(t *testing.T) {
	const n, total = 3, 16
	dir := t.TempDir()
	_, eps := hubEndpoints(t, n)

	jn, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := service.New(journalConfig(n, jn), eps)
	if err != nil {
		t.Fatal(err)
	}
	decs := driveProposals(t, svc, 4, total)
	if t.Failed() {
		return
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	if st := svc.Snapshot(); len(st.Violations) != 0 {
		t.Fatalf("violations: %v", st.Violations)
	}
	if err := jn.Close(); err != nil {
		t.Fatal(err)
	}

	// Every resolved decision must already be durable
	// (journal-before-complete), and the journal's frontier must clear
	// every decided instance.
	live := make(map[uint64]model.Value)
	var maxInstance uint64
	for _, d := range decs {
		live[d.Instance] = d.Value
		if d.Instance > maxInstance {
			maxInstance = d.Instance
		}
	}

	jn2, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = jn2.Close() }()
	frontier := jn2.Frontier()
	if frontier <= maxInstance {
		t.Fatalf("recovered frontier %d does not clear decided instance %d", frontier, maxInstance)
	}
	for inst, v := range live {
		rec, ok := jn2.Get(inst)
		if !ok {
			t.Fatalf("instance %d resolved live but is not journaled", inst)
		}
		if rec.Value != v {
			t.Fatalf("instance %d journaled %d but resolved %d", inst, rec.Value, v)
		}
	}

	svc2, err := service.New(journalConfig(n, jn2), eps)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = svc2.Close() }()
	// The recovery read path: journaled decisions are served without
	// re-running consensus.
	for inst, v := range live {
		dec, ok := svc2.Lookup(inst)
		if !ok || dec.Value != v || dec.Instance != inst {
			t.Fatalf("Lookup(%d) = %+v, %v; want value %d", inst, dec, ok, v)
		}
	}
	if _, ok := svc2.Lookup(frontier + 100); ok {
		t.Fatal("Lookup invented a decision")
	}

	decs2 := driveProposals(t, svc2, 4, total)
	if t.Failed() {
		return
	}
	for _, d := range decs2 {
		if d.Instance < frontier {
			t.Fatalf("successor decided instance %d below the recovered frontier %d", d.Instance, frontier)
		}
		live[d.Instance] = d.Value
	}
	if err := svc2.Close(); err != nil {
		t.Fatal(err)
	}
	if st := svc2.Snapshot(); len(st.Violations) != 0 {
		t.Fatalf("successor violations: %v", st.Violations)
	}

	hist, err := journal.ReadHistory(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep := check.Replay(hist.Records, hist.Starts, live); !rep.OK() {
		t.Fatalf("check.Replay violations: %v", rep.Violations)
	}
}

// TestServiceResumesMultiGroupJournal resumes a journal written the way
// a three-group runtime of earlier builds wrote one: group g of 3 decided
// the strided IDs g, g+3, g+6, … and claimed blocks of 4 of them, every
// record tagged with g. A one-group service must resume past the whole
// directory's frontier, serve the old decisions without re-running them,
// and re-decide nothing; check.Replay over the directory, group tags
// included, must be clean.
func TestServiceResumesMultiGroupJournal(t *testing.T) {
	const n, groups, block = 3, 3, 4
	dir := t.TempDir()
	jn, err := journal.Open(dir, journal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	cfg := journalConfig(n, jn)
	alg := adapt.ProbeName(cfg.Factory, n, cfg.T)
	old := make(map[uint64]model.Value)
	for g := uint64(0); g < groups; g++ {
		for i := uint64(0); i < 5; i++ {
			inst := g + groups*i
			if i%block == 0 {
				last := inst + groups*(block-1)
				if err := jn.AppendStartRecord(wire.StartRecord{Instance: last, Alg: alg, Group: g}); err != nil {
					t.Fatal(err)
				}
			}
			rec := wire.DecisionRecord{Instance: inst, Value: model.Value(100 + inst), Round: 3, Batch: 1, Group: g}
			if err := jn.Append(rec); err != nil {
				t.Fatal(err)
			}
			old[inst] = rec.Value
		}
	}
	// The highest claim is group 2's second block, through 2+3·(4+3) = 23.
	const frontier = 24
	if err := jn.Close(); err != nil {
		t.Fatal(err)
	}

	jn, err = journal.Open(dir, journal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = jn.Close() }()
	if got := jn.Frontier(); got != frontier {
		t.Fatalf("reopened frontier %d, want %d", got, frontier)
	}
	_, eps := hubEndpoints(t, n)
	svc, err := service.New(journalConfig(n, jn), eps)
	if err != nil {
		t.Fatal(err)
	}
	for inst, v := range old {
		if dec, ok := svc.Lookup(inst); !ok || dec.Value != v {
			t.Fatalf("Lookup(%d) = %+v, %v; want value %d", inst, dec, ok, v)
		}
	}
	live := make(map[uint64]model.Value)
	for _, d := range driveProposals(t, svc, 4, 12) {
		if d.Instance < frontier {
			t.Fatalf("decided instance %d below the multi-group frontier %d", d.Instance, frontier)
		}
		live[d.Instance] = d.Value
	}
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}

	hist, err := journal.ReadHistory(dir)
	if err != nil {
		t.Fatal(err)
	}
	tags := make(map[uint64]bool)
	for _, r := range hist.Records {
		tags[r.Group] = true
	}
	if len(hist.Records) != len(old)+len(live) || len(tags) != groups {
		t.Fatalf("read back %d decisions under groups %v, want %d under %d groups",
			len(hist.Records), tags, len(old)+len(live), groups)
	}
	if rep := check.Replay(hist.Records, hist.Starts, live); !rep.OK() {
		t.Fatalf("audit of the multi-group journal and its successor: %v", rep.Violations)
	}
}

// crashBattery accumulates cross-lifetime observations of one journal
// directory: every live resolution ever seen, and the frontier at each
// restart.
type crashBattery struct {
	t   *testing.T
	rng *rand.Rand
	eps []transport.Transport
	n   int
	dir string

	mu           sync.Mutex
	live         map[uint64]model.Value
	conflicts    []string
	prevFrontier uint64
	nextVal      int64
}

// runLifetime runs one service lifetime over the battery's endpoints and
// journal directory. When kill is true it schedules a crash at a
// randomized point — after a randomized journal append (so the
// journaled-but-unserved window after a decision's fsync is hit
// directly) or at a randomized wall-clock instant mid-load — and
// hard-stops the service there via Abort. It reports whether the kill
// actually fired (a fast lifetime can finish first). The final lifetime
// of a scenario runs with kill=false and shuts down cleanly.
func (cb *crashBattery) runLifetime(kill bool) bool {
	t := cb.t
	t.Helper()

	var (
		killOnce  sync.Once
		killDone  = make(chan struct{})
		killFired atomic.Bool
		svcBox    atomic.Pointer[service.Service]
		timer     *time.Timer
	)
	ltCtx, ltCancel := context.WithCancel(context.Background())
	defer ltCancel()
	doKill := func() {
		killOnce.Do(func() {
			defer close(killDone)
			killFired.Store(true)
			if svc := svcBox.Load(); svc != nil {
				svc.Abort()
			}
			ltCancel()
		})
	}

	// Two kill disciplines, chosen at random: after the Nth durable
	// journal append (starts and decisions both count, so the kill can
	// land right after an instance-start fsync or right after a
	// decision fsync, before the futures resolve), or after a random
	// delay unaligned with anything.
	var (
		appendKillAt int64
		appendCount  atomic.Int64
	)
	if kill {
		if cb.rng.Intn(2) == 0 {
			appendKillAt = int64(1 + cb.rng.Intn(8))
		} else {
			timer = time.AfterFunc(time.Duration(100+cb.rng.Intn(3000))*time.Microsecond, doKill)
		}
	}

	jn, err := journal.Open(cb.dir, journal.Options{
		SegmentBytes: 2048,
		OnAppend: func(journal.Entry) {
			if appendKillAt > 0 && appendCount.Add(1) == appendKillAt {
				doKill()
			}
		},
	})
	if err != nil {
		t.Fatalf("open journal: %v", err)
	}
	frontier := jn.Frontier()
	if frontier < cb.prevFrontier {
		t.Fatalf("frontier regressed across restart: %d -> %d", cb.prevFrontier, frontier)
	}
	cb.prevFrontier = frontier

	svc, err := service.New(journalConfig(cb.n, jn), cb.eps)
	if err != nil {
		t.Fatalf("start service: %v", err)
	}
	svcBox.Store(svc)

	const perLifetime = 12
	vals := make(chan model.Value, perLifetime)
	for i := 0; i < perLifetime; i++ {
		cb.nextVal++
		vals <- model.Value(cb.nextVal)
	}
	close(vals)
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for v := range vals {
				fut, err := svc.Propose(ltCtx, v)
				if err != nil {
					return // killed mid-load: the client dies with its server
				}
				dec, err := fut.Wait(ltCtx)
				if err != nil {
					return
				}
				cb.mu.Lock()
				if dec.Instance < frontier {
					cb.conflicts = append(cb.conflicts,
						"decision below the recovered frontier")
				}
				if prev, ok := cb.live[dec.Instance]; ok && prev != dec.Value {
					cb.conflicts = append(cb.conflicts,
						"instance resolved two values across lifetimes")
				}
				cb.live[dec.Instance] = dec.Value
				cb.mu.Unlock()
			}
		}()
	}
	wg.Wait()

	if timer != nil {
		timer.Stop()
	}
	// Claim the kill slot: if the kill already fired (or is firing),
	// wait for the Abort to finish so the endpoints are free; otherwise
	// this lifetime ends gracefully.
	graceful := false
	killOnce.Do(func() { graceful = true; close(killDone) })
	<-killDone
	if graceful {
		if err := svc.Close(); err != nil {
			t.Fatalf("close service: %v", err)
		}
	} else {
		// A kill that fired before svcBox held the service aborted
		// nothing; left running, its muxes would steal the successor's
		// frames off the shared endpoints. Abort is idempotent.
		svc.Abort()
	}
	if st := svc.Snapshot(); len(st.Violations) != 0 {
		t.Fatalf("check violations in lifetime: %v", st.Violations)
	}
	if err := jn.Close(); err != nil {
		t.Fatalf("close journal: %v", err)
	}
	return killFired.Load()
}

// finish cross-checks the scenario's journal against everything clients
// ever observed, with check.Replay as the auditor.
func (cb *crashBattery) finish() {
	t := cb.t
	t.Helper()
	cb.mu.Lock()
	defer cb.mu.Unlock()
	if len(cb.conflicts) != 0 {
		t.Fatalf("cross-lifetime conflicts: %v", cb.conflicts)
	}
	var recs []wire.DecisionRecord
	var starts []wire.StartRecord
	journaled := make(map[uint64]struct{})
	info, err := journal.Replay(cb.dir, func(e journal.Entry) error {
		switch {
		case e.Trace != nil:
		case e.Start:
			starts = append(starts, wire.StartRecord{Instance: e.Instance(), Alg: e.Alg})
		default:
			recs = append(recs, e.Decision)
			journaled[e.Decision.Instance] = struct{}{}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("final replay: %v", err)
	}
	if rep := check.Replay(recs, starts, cb.live); !rep.OK() {
		t.Fatalf("check.Replay violations: %v", rep.Violations)
	}
	// Journal-before-complete, observed end to end: nothing ever
	// resolved live without being durable first.
	for inst := range cb.live {
		if _, ok := journaled[inst]; !ok {
			t.Fatalf("instance %d resolved live but never journaled", inst)
		}
	}
	if info.Frontier < cb.prevFrontier {
		t.Fatalf("final frontier %d below last restart's %d", info.Frontier, cb.prevFrontier)
	}
}

// runCrashRestartScenario runs lifetimes service lifetimes over one
// journal directory and shared endpoints — all but the last with a
// randomized kill — and returns how many kills actually fired.
func runCrashRestartScenario(t *testing.T, rng *rand.Rand, eps []transport.Transport, n int, dir string, lifetimes int) int {
	cb := &crashBattery{
		t: t, rng: rng, eps: eps, n: n, dir: dir,
		live: make(map[uint64]model.Value),
	}
	kills := 0
	for lt := 0; lt < lifetimes; lt++ {
		if cb.runLifetime(lt < lifetimes-1) {
			kills++
		}
		if t.Failed() {
			return kills
		}
	}
	cb.finish()
	return kills
}

// TestServiceCrashRestartBattery is the crash-restart hammer the journal
// exists for: 50+ randomized kill points (append-aligned and
// wall-clock-aligned) across service lifetimes sharing one journal, over
// both the in-memory and the TCP transport. After every crash the
// successor recovers from the journal alone. The battery asserts that no
// instance ever resolves two different values across lifetimes, that
// everything resolved live was journaled first, and that the instance
// frontier never regresses — with check.Replay auditing the joint
// journal/live history of every scenario.
func TestServiceCrashRestartBattery(t *testing.T) {
	const n = 3
	rng := rand.New(rand.NewSource(20260729))
	kills := 0
	for s := 0; s < 12 && kills < 42; s++ {
		_, eps := hubEndpoints(t, n)
		kills += runCrashRestartScenario(t, rng, eps, n, t.TempDir(), 8)
		if t.Failed() {
			return
		}
	}
	for s := 0; s < 6 && kills < 52; s++ {
		eps := tcpEndpoints(t, n)
		kills += runCrashRestartScenario(t, rng, eps, n, t.TempDir(), 6)
		if t.Failed() {
			return
		}
	}
	if kills < 50 {
		t.Fatalf("battery exercised only %d kill points, want >= 50", kills)
	}
	t.Logf("crash-restart battery: %d randomized kill points", kills)
}
