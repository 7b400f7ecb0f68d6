package shard_test

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"indulgence/internal/check"
	"indulgence/internal/core"
	"indulgence/internal/journal"
	"indulgence/internal/metrics"
	"indulgence/internal/model"
	"indulgence/internal/service"
	"indulgence/internal/shard"
	"indulgence/internal/transport"
	"indulgence/internal/wire"
)

// hubEndpoints builds one hub and returns its endpoints.
func hubEndpoints(t *testing.T, n int) []transport.Transport {
	t.Helper()
	hub, err := transport.NewHub(n)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = hub.Close() })
	eps := make([]transport.Transport, n)
	for i := 0; i < n; i++ {
		ep, err := hub.Endpoint(model.ProcessID(i + 1))
		if err != nil {
			t.Fatal(err)
		}
		eps[i] = ep
	}
	return eps
}

func runtimeConfig(groups int) shard.Config {
	return shard.Config{
		Service: service.Config{
			N: 3, T: 1,
			Factory:     core.New(core.Options{}),
			BaseTimeout: 20 * time.Millisecond,
			Linger:      time.Millisecond,
		},
		Groups: groups,
	}
}

// openJournal opens a NoSync journal in dir, closed at test cleanup
// unless the test closes it first.
func openJournal(t *testing.T, dir string) *journal.Journal {
	t.Helper()
	j, err := journal.Open(dir, journal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = j.Close() })
	return j
}

// alignUp is the smallest instance ID at or above frontier in group g's
// strided space of stride groups: where a recovered group resumes.
func alignUp(frontier, g, groups uint64) uint64 {
	x := max(frontier, g)
	return x + (groups-(x-g)%groups)%groups
}

// TestRuntimeShardsDisjoint drives proposals through a multi-group
// runtime and checks the contract the whole design rests on: every
// group resolves its proposals, and the decided instance IDs of
// different groups live in disjoint strided spaces.
func TestRuntimeShardsDisjoint(t *testing.T) {
	const groups = 3
	rt, err := shard.New(runtimeConfig(groups), hubEndpoints(t, 3))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	if rt.Groups() != groups || rt.Policy() != "round-robin" {
		t.Fatalf("runtime = %d groups, %q policy", rt.Groups(), rt.Policy())
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	const total = 24
	futs := make([]*service.Future, 0, total)
	for i := 0; i < total; i++ {
		f, err := rt.Propose(ctx, model.Value(100+i))
		if err != nil {
			t.Fatal(err)
		}
		futs = append(futs, f)
	}
	for _, f := range futs {
		dec, err := f.Wait(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if dec.Batch < 1 {
			t.Fatalf("impossible batch %d", dec.Batch)
		}
	}

	roll := rt.Snapshot()
	if roll.Proposals != total || roll.Resolved != total {
		t.Fatalf("rollup proposals/resolved = %d/%d, want %d/%d",
			roll.Proposals, roll.Resolved, total, total)
	}
	if len(roll.Violations) != 0 {
		t.Fatalf("violations: %v", roll.Violations)
	}
	// Round-robin touched every group.
	for g, st := range roll.Groups {
		if st.Proposals == 0 {
			t.Fatalf("group %d saw no proposals under round-robin", g)
		}
	}
}

// TestRuntimeJournalRecovery is the cross-group restart audit: a
// multi-group runtime journaling into one caller-owned journal is
// aborted mid-life, the journal closed and reopened, and a successor
// runtime started on it. The successor must resume every group at or
// above the process-wide frontier aligned into the group's residue class
// (no instance ID re-used, in any group), and the offline replay of the
// journal must pass check.Replay — including its cross-group instance
// audit.
func TestRuntimeJournalRecovery(t *testing.T) {
	const groups = 3
	dir := t.TempDir()
	live := make(map[uint64]model.Value)

	// run is one lifetime; it returns the instances it decided and the
	// journal's frontier at its end.
	run := func(base int) (decided []uint64, frontier uint64) {
		j := openJournal(t, dir)
		cfg := runtimeConfig(groups)
		cfg.Service.Journal = j
		rt, err := shard.New(cfg, hubEndpoints(t, 3))
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
		defer cancel()
		var futs []*service.Future
		for i := 0; i < 12; i++ {
			f, err := rt.Propose(ctx, model.Value(base+i))
			if err != nil {
				t.Fatal(err)
			}
			futs = append(futs, f)
		}
		for _, f := range futs {
			dec, err := f.Wait(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if prev, ok := live[dec.Instance]; ok && prev != dec.Value {
				t.Fatalf("instance %d resolved %d and later %d", dec.Instance, prev, dec.Value)
			}
			live[dec.Instance] = dec.Value
			decided = append(decided, dec.Instance)
		}
		// Abort, not Close: restart recovery must work from the crash
		// shutdown shape.
		rt.Abort()
		frontier = j.Frontier()
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		return decided, frontier
	}
	_, first := run(1000)
	second, _ := run(2000) // the successor lifetime, recovering the shared frontier
	for _, inst := range second {
		g := inst % groups
		if floor := alignUp(first, g, groups); inst < floor {
			t.Fatalf("group %d resumed at instance %d, below the first lifetime's frontier %d aligned to %d",
				g, inst, first, floor)
		}
	}

	hist, err := shard.ReplayDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(hist.Records) == 0 || len(hist.Starts) == 0 {
		t.Fatalf("replayed %d records, %d starts", len(hist.Records), len(hist.Starts))
	}
	perGroup := make(map[uint64]int)
	for _, r := range hist.Records {
		if r.Instance%groups != r.Group {
			t.Fatalf("instance %d journaled under group %d (not its residue class)", r.Instance, r.Group)
		}
		perGroup[r.Group]++
	}
	if len(perGroup) != groups {
		t.Fatalf("decisions landed in %d groups, want %d", len(perGroup), groups)
	}
	if rep := check.Replay(hist.Records, hist.Starts, live); !rep.OK() {
		t.Fatalf("cross-group replay audit failed: %v", rep.Violations)
	}
}

// TestOneGroupRuntimeJournalsInRoot pins that a runtime and a bare
// service.Service journal alike: a directory a bare service journaled
// into is resumed by shard.New(Groups: 1) on the reopened journal past
// its frontier — never re-deciding an instance — and ReplayDir reads back
// exactly what journal.Replay does.
func TestOneGroupRuntimeJournalsInRoot(t *testing.T) {
	dir := t.TempDir()
	cfg := runtimeConfig(1)
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()

	j := openJournal(t, dir)
	svcCfg := cfg.Service
	svcCfg.Journal = j
	svc, err := service.New(svcCfg, hubEndpoints(t, 3))
	if err != nil {
		t.Fatal(err)
	}
	live := make(map[uint64]model.Value)
	for i := 0; i < 6; i++ {
		f, err := svc.Propose(ctx, model.Value(100+i))
		if err != nil {
			t.Fatal(err)
		}
		dec, err := f.Wait(ctx)
		if err != nil {
			t.Fatal(err)
		}
		live[dec.Instance] = dec.Value
	}
	svc.Abort()
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	var want []wire.DecisionRecord
	info, err := journal.Replay(dir, func(e journal.Entry) error {
		if !e.Start && e.Trace == nil {
			want = append(want, e.Decision)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	hist, err := shard.ReplayDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(hist.Records, want) || len(want) == 0 || hist.Frontier != info.Frontier {
		t.Fatalf("ReplayDir = %d records, frontier %d; journal.Replay = %d records, frontier %d",
			len(hist.Records), hist.Frontier, len(want), info.Frontier)
	}

	j = openJournal(t, dir)
	if j.Frontier() != info.Frontier {
		t.Fatalf("reopened journal at frontier %d, want %d", j.Frontier(), info.Frontier)
	}
	cfg.Service.Journal = j
	rt, err := shard.New(cfg, hubEndpoints(t, 3))
	if err != nil {
		t.Fatal(err)
	}
	f, err := rt.Propose(ctx, 999)
	if err != nil {
		t.Fatal(err)
	}
	dec, err := f.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Instance < info.Frontier {
		t.Fatalf("successor decided instance %d below the recovered frontier %d", dec.Instance, info.Frontier)
	}
	live[dec.Instance] = dec.Value
	if err := rt.Close(); err != nil {
		t.Fatal(err)
	}
	if hist, err = shard.ReplayDir(dir); err != nil {
		t.Fatal(err)
	}
	if rep := check.Replay(hist.Records, hist.Starts, live); !rep.OK() {
		t.Fatalf("audit across the service and runtime lifetimes failed: %v", rep.Violations)
	}
}

// TestReplayDirFlagsCrossGroupInstance plants the violation the audit
// exists to catch: one instance ID journaled by two different groups
// into the journal they share. The strided allocation makes this
// impossible for a correct runtime, so check.Replay over the replayed
// stream must flag it.
func TestReplayDirFlagsCrossGroupInstance(t *testing.T) {
	dir := t.TempDir()
	j := openJournal(t, dir)
	for _, rec := range []wire.DecisionRecord{
		{Instance: 5, Value: 7, Round: 3, Batch: 1, Group: 0},
		{Instance: 5, Value: 7, Round: 3, Batch: 1, Group: 1},
	} {
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	hist, err := shard.ReplayDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(hist.Records) != 2 {
		t.Fatalf("replayed %d records, want both conflicting ones", len(hist.Records))
	}
	rep := check.Replay(hist.Records, hist.Starts, nil)
	if rep.Agreement {
		t.Fatalf("cross-group instance not flagged: %+v", rep)
	}
}

// TestGroupLayoutRefused pins the refusal of the retired per-group
// layout, a root holding group-NNNN subdirectories: shard.New on a
// journal opened there and ReplayDir of the root both fail with
// ErrGroupLayout. (TestServeShardSubcommand reads one subdirectory on its
// own.)
func TestGroupLayoutRefused(t *testing.T) {
	root := t.TempDir()
	if err := os.Mkdir(filepath.Join(root, "group-0000"), 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := shard.ReplayDir(root); !errors.Is(err, shard.ErrGroupLayout) {
		t.Fatalf("ReplayDir of a per-group root: %v, want ErrGroupLayout", err)
	}
	cfg := runtimeConfig(2)
	cfg.Service.Journal = openJournal(t, root)
	if rt, err := shard.New(cfg, hubEndpoints(t, 3)); !errors.Is(err, shard.ErrGroupLayout) {
		if rt != nil {
			_ = rt.Close()
		}
		t.Fatalf("shard.New on a per-group root: %v, want ErrGroupLayout", err)
	}
}

// TestPeerRuntimeMultiGroup runs a 3-member sharded cluster in one
// process over a shared hub: proposals enter different members under
// key-affinity placement, every member's matching group joins, and all
// members resolve each key's instances identically.
func TestPeerRuntimeMultiGroup(t *testing.T) {
	const n, groups = 3, 2
	eps := hubEndpoints(t, n)
	members := make([]*shard.Runtime, n)
	for i := 0; i < n; i++ {
		cfg := shard.Config{
			Service: service.Config{
				N: n, T: 1,
				Factory:     core.New(core.Options{}),
				BaseTimeout: 20 * time.Millisecond,
				Linger:      time.Millisecond,
			},
			Groups:    groups,
			Placement: shard.NewKeyAffinity(),
		}
		m, err := shard.New(cfg, eps[i:i+1])
		if err != nil {
			t.Fatal(err)
		}
		members[i] = m
		defer m.Close()
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	type tagged struct {
		fut  *service.Future
		from int
	}
	var futs []tagged
	for i := 0; i < 12; i++ {
		member := members[i%n]
		f, err := member.ProposeKeyClass(ctx, uint64(i%4), 0, model.Value(500+i))
		if err != nil {
			t.Fatal(err)
		}
		futs = append(futs, tagged{f, i % n})
	}
	resolved := make(map[uint64]model.Value)
	for _, tf := range futs {
		dec, err := tf.fut.Wait(ctx)
		if err != nil {
			t.Fatalf("member %d: %v", tf.from, err)
		}
		if prev, ok := resolved[dec.Instance]; ok && prev != dec.Value {
			t.Fatalf("instance %d resolved %d and %d", dec.Instance, prev, dec.Value)
		}
		resolved[dec.Instance] = dec.Value
	}
	for i, m := range members {
		if roll := m.Snapshot(); len(roll.Violations) != 0 {
			t.Fatalf("member %d violations: %v", i+1, roll.Violations)
		}
	}
}

// TestPeerRuntimeJoinsEarlyFrames pins the join of a slot whose frames
// reach a member before its runtime exists: p1 starts a group-1 slot
// while p2 is not yet built, so p2's shared mux routes the slot's frames
// before the group services are up and before the join signal is
// installed. p2 must still join the slot — installing the signal replays
// it — or p1, short of n−t processes, never decides.
func TestPeerRuntimeJoinsEarlyFrames(t *testing.T) {
	const n, groups = 3, 2
	eps := hubEndpoints(t, n)
	member := func(id int, reg *metrics.Registry) *shard.Runtime {
		t.Helper()
		cfg := shard.Config{
			Service: service.Config{
				N: n, T: 1,
				Factory:         core.New(core.Options{}),
				BaseTimeout:     20 * time.Millisecond,
				Linger:          time.Millisecond,
				InstanceTimeout: 10 * time.Second,
				Metrics:         reg,
			},
			Groups: groups,
		}
		r, err := shard.New(cfg, eps[id-1:id])
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = r.Close() })
		return r
	}
	reg := metrics.NewRegistry()
	p1 := member(1, reg)
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	fut, err := p1.Group(1).Propose(ctx, 7)
	if err != nil {
		t.Fatal(err)
	}
	// p1's first broadcast is out (its frame to p2 is sent before the
	// counter reaches n) and p1 waits for a second process.
	sent := func() (frames int) {
		for _, line := range strings.Split(reg.Text(), "\n") {
			if v, ok := strings.CutPrefix(line, "indulgence_frames_out_total "); ok {
				frames, _ = strconv.Atoi(v)
			}
		}
		return frames
	}
	for sent() < n {
		if ctx.Err() != nil {
			t.Fatal("p1 never broadcast its first round")
		}
		time.Sleep(time.Millisecond)
	}
	p2 := member(2, nil)
	dec, err := fut.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if dec.Instance != 1 || dec.Value != 7 {
		t.Fatalf("decided %+v, want value 7 on group 1's first slot", dec)
	}
	for p2.Group(1).Snapshot().JoinedInstances < 1 {
		if ctx.Err() != nil {
			t.Fatal("p2 never joined the group-1 slot")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPeerRuntimeMixedPlacement runs a G = 3 cluster whose members place
// proposals differently: p1 under key-affinity with one key (so one
// group), p2 round-robin (every group) and p3 least-loaded (group 0 at
// this load). Each member joins slots in classes its own placement
// never feeds, routed by instance mod G alone. Every future resolves,
// and the members' journals, replayed together, hold no violation.
func TestPeerRuntimeMixedPlacement(t *testing.T) {
	const n, groups = 3, 3
	eps := hubEndpoints(t, n)
	policies := []shard.Policy{shard.NewKeyAffinity(), shard.NewRoundRobin(), shard.NewLeastLoaded()}
	dirs := make([]string, n)
	members := make([]*shard.Runtime, n)
	for i := range members {
		dirs[i] = t.TempDir()
		cfg := runtimeConfig(groups)
		cfg.Service.Journal = openJournal(t, dirs[i])
		cfg.Placement = policies[i]
		m, err := shard.New(cfg, eps[i:i+1])
		if err != nil {
			t.Fatal(err)
		}
		members[i] = m
		defer m.Close()
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	var futs []*service.Future
	for i := 0; i < 18; i++ {
		f, err := members[i%n].ProposeKeyClass(ctx, 42, 0, model.Value(700+i))
		if err != nil {
			t.Fatal(err)
		}
		futs = append(futs, f)
	}
	live := make(map[uint64]model.Value)
	classes := make([]map[uint64]bool, n)
	for i, f := range futs {
		dec, err := f.Wait(ctx)
		if err != nil {
			t.Fatalf("p%d proposal %d: %v", i%n+1, i, err)
		}
		if prev, ok := live[dec.Instance]; ok && prev != dec.Value {
			t.Fatalf("instance %d resolved %d and %d", dec.Instance, prev, dec.Value)
		}
		live[dec.Instance] = dec.Value
		if classes[i%n] == nil {
			classes[i%n] = make(map[uint64]bool)
		}
		classes[i%n][dec.Instance%groups] = true
	}
	if len(classes[0]) != 1 || len(classes[1]) != groups {
		t.Fatalf("p1 initiated in classes %v, p2 in %v; want one class and all %d", classes[0], classes[1], groups)
	}
	// p1 joined every class its one key never feeds.
	for g := uint64(0); g < groups; g++ {
		if !classes[0][g] {
			for members[0].Group(int(g)).Snapshot().JoinedInstances == 0 {
				if ctx.Err() != nil {
					t.Fatalf("p1 never joined a group-%d slot", g)
				}
				time.Sleep(time.Millisecond)
			}
		}
	}

	var hist shard.History
	for i, m := range members {
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}
		if roll := m.Snapshot(); len(roll.Violations) != 0 {
			t.Fatalf("p%d violations: %v", i+1, roll.Violations)
		}
		h, err := shard.ReplayDir(dirs[i])
		if err != nil {
			t.Fatal(err)
		}
		hist.Records = append(hist.Records, h.Records...)
		hist.Starts = append(hist.Starts, h.Starts...)
	}
	if rep := check.Replay(hist.Records, hist.Starts, live); !rep.OK() {
		t.Fatalf("cross-member audit: %v", rep.Violations)
	}
}
