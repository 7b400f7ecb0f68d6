package runtime

import (
	"context"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"
	"unsafe"

	"indulgence/internal/chaos/clock"
	"indulgence/internal/core"
	"indulgence/internal/fd"
	"indulgence/internal/model"
	"indulgence/internal/payload"
	"indulgence/internal/transport"
	"indulgence/internal/wire"
)

// queuedEndpoint replays a fixed frame sequence to the node; sends are
// discarded.
type queuedEndpoint struct {
	self model.ProcessID
	ch   chan []byte
}

func (e *queuedEndpoint) Self() model.ProcessID              { return e.self }
func (e *queuedEndpoint) Send(model.ProcessID, []byte) error { return nil }
func (e *queuedEndpoint) Recv() <-chan []byte                { return e.ch }
func (e *queuedEndpoint) Close() error                       { return nil }

// holdEarly has nd's inbox hold msgs as frames that arrived during round
// k−1, before nd's round-k receive phase.
func holdEarly(nd *node, k model.Round, msgs ...model.Message) {
	nd.inbox.Begin(k-1, nd.cfg.N)
	for _, m := range msgs {
		nd.inbox.Add(m)
	}
}

// TestCollectDeliveryOrder pins collect's receive set against a
// reference sort: whatever order frames arrive in — round-k messages,
// late ones from earlier rounds, a future-round one, a duplicate, and the
// round-k DECIDE that ends the phase — the delivered set is exactly the
// early round-k message (once, though two copies of it came early), the
// round-k messages and late messages consumed so far, ordered by
// (Round, From).
func TestCollectDeliveryOrder(t *testing.T) {
	const n, k = 5, model.Round(3)
	est := func(from model.ProcessID, r model.Round) model.Message {
		return model.Message{From: from, Round: r, Payload: payload.Estimate{Est: model.Value(10*int(r) + int(from))}}
	}
	arrivals := []model.Message{
		est(1, k), est(2, k), est(4, k), est(2, k), // p2's round-k duplicate is dropped
		{From: 5, Round: k, Payload: payload.Decide{V: 7}},
		est(2, 1), est(4, 2), est(5, 2), est(1, 2), est(3, 1),
		est(2, k+1), // future: stays buffered
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		order := rng.Perm(len(arrivals))
		ep := &queuedEndpoint{self: 1, ch: make(chan []byte, len(arrivals))}
		for _, i := range order {
			frame, err := wire.EncodeMessage(nil, arrivals[i])
			if err != nil {
				t.Fatal(err)
			}
			ep.ch <- frame
		}
		nd := &node{
			id: 1,
			cfg: &Config{N: n, T: 2, WaitPolicy: core.WaitUnsuspected,
				BaseTimeout: time.Hour, Clock: clock.Real{}},
			ep:       ep,
			detector: fd.NewTimeoutDetectorClock(time.Hour, clock.Real{}),
		}
		// Two copies of p3's round-k message arrived during an earlier
		// round.
		holdEarly(nd, k, est(3, k), est(3, k))
		got, ok := nd.collect(context.Background(), k)
		if !ok {
			t.Fatal("collect failed")
		}

		// Reference: replay the consumed prefix by hand, then sort.
		want := []model.Message{est(3, k)}
		seen := model.NewPIDSet(3)
		for _, i := range order[:len(arrivals)-len(ep.ch)] {
			m := arrivals[i]
			switch {
			case m.Round < k:
				want = append(want, m)
			case m.Round == k && !seen.Has(m.From):
				seen.Add(m.From)
				want = append(want, m)
			}
		}
		sort.Slice(want, func(a, b int) bool {
			if want[a].Round != want[b].Round {
				return want[a].Round < want[b].Round
			}
			return want[a].From < want[b].From
		})
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (arrival order %v):\n got %v\nwant %v", trial, order, got, want)
		}
		last := arrivals[order[len(arrivals)-len(ep.ch)-1]]
		if _, decide := last.Payload.(payload.Decide); last.Round != k || !decide {
			t.Fatalf("trial %d: phase ended on %v, not on the DECIDE", trial, last)
		}
	}
}

// TestCollectCountsEarlyFramesOncePerSender: at n = 4, t = 1 under
// WaitQuorum, two copies of p2's round-k message and p1's own, all held
// from an earlier round, are two senders, not the three messages of a
// quorum. The phase ends on p3's round-k frame, which it must consume.
func TestCollectCountsEarlyFramesOncePerSender(t *testing.T) {
	const k = model.Round(2)
	est := func(from model.ProcessID) model.Message {
		return model.Message{From: from, Round: k, Payload: payload.Estimate{Est: model.Value(from)}}
	}
	ep := &queuedEndpoint{self: 1, ch: make(chan []byte, 1)}
	frame, err := wire.EncodeMessage(nil, est(3))
	if err != nil {
		t.Fatal(err)
	}
	ep.ch <- frame
	nd := &node{
		id: 1,
		cfg: &Config{N: 4, T: 1, WaitPolicy: core.WaitQuorum,
			BaseTimeout: time.Hour, Clock: clock.Real{}},
		ep:       ep,
		detector: fd.NewTimeoutDetectorClock(time.Hour, clock.Real{}),
	}
	holdEarly(nd, k, est(2), est(1), est(2))
	got, ok := nd.collect(context.Background(), k)
	nd.poll.Stop()
	if want := []model.Message{est(1), est(2), est(3)}; !ok || !reflect.DeepEqual(got, want) {
		t.Fatalf("collect returned %v, %v; want %v", got, ok, want)
	}
	if len(ep.ch) != 0 {
		t.Fatal("the phase ended before p3's frame")
	}
}

// TestCollectDropsLateDuplicates: a second copy of a frame the node
// delivered in an earlier round (a duplicating link) arrives late and
// does not reach the algorithm again.
func TestCollectDropsLateDuplicates(t *testing.T) {
	const k = model.Round(2)
	est := func(from model.ProcessID, r model.Round) model.Message {
		return model.Message{From: from, Round: r, Payload: payload.Estimate{Est: model.Value(from)}}
	}
	arrivals := []model.Message{est(2, 1), est(1, k), est(2, k), est(3, k)}
	ep := &queuedEndpoint{self: 1, ch: make(chan []byte, len(arrivals))}
	for _, m := range arrivals {
		frame, err := wire.EncodeMessage(nil, m)
		if err != nil {
			t.Fatal(err)
		}
		ep.ch <- frame
	}
	nd := &node{
		id: 1,
		cfg: &Config{N: 4, T: 1, WaitPolicy: core.WaitQuorum,
			BaseTimeout: time.Hour, Clock: clock.Real{}},
		ep:       ep,
		detector: fd.NewTimeoutDetectorClock(time.Hour, clock.Real{}),
	}
	// Round 1 delivered p2's round-1 message.
	holdEarly(nd, k, est(2, 1))
	got, ok := nd.collect(context.Background(), k)
	nd.poll.Stop()
	if want := []model.Message{est(1, k), est(2, k), est(3, k)}; !ok || !reflect.DeepEqual(got, want) {
		t.Fatalf("collect returned %v, %v; want %v", got, ok, want)
	}
}

// TestCollectDropsMalformedFrames: a frame from a sender outside 1..n or
// of a round below 1 is dropped, so a DECIDE in one decides nothing and
// the phase ends on the quorum of well-formed round-1 frames.
func TestCollectDropsMalformedFrames(t *testing.T) {
	decide := payload.Decide{V: 9}
	arrivals := []model.Message{
		{From: 0, Round: 0, Payload: decide},
		{From: 5, Round: 1, Payload: decide},
		{From: 2, Round: -1, Payload: decide},
		{From: 1, Round: 1, Payload: payload.Estimate{Est: 1}},
		{From: 2, Round: 1, Payload: payload.Estimate{Est: 2}},
		{From: 3, Round: 1, Payload: payload.Estimate{Est: 3}},
	}
	ep := &queuedEndpoint{self: 1, ch: make(chan []byte, len(arrivals))}
	for _, m := range arrivals {
		frame, err := wire.EncodeMessage(nil, m)
		if err != nil {
			t.Fatal(err)
		}
		ep.ch <- frame
	}
	nd := &node{
		id: 1,
		cfg: &Config{N: 4, T: 1, WaitPolicy: core.WaitQuorum,
			BaseTimeout: time.Hour, Clock: clock.Real{}},
		ep:       ep,
		detector: fd.NewTimeoutDetectorClock(time.Hour, clock.Real{}),
	}
	got, ok := nd.collect(context.Background(), 1)
	nd.poll.Stop()
	if want := arrivals[3:]; !ok || !reflect.DeepEqual(got, want) {
		t.Fatalf("collect returned %v, %v; want %v", got, ok, want)
	}
	if v, decided := nd.inbox.Decided(); decided {
		t.Fatalf("a malformed frame's DECIDE(%d) decided the node", v)
	}
}

// oneShotAlg sends its proposal every round and decides it at the end of
// round decideAt. It fails the test if the node calls it after its
// Decision has reported.
type oneShotAlg struct {
	t        *testing.T
	self     model.ProcessID
	v        model.Value
	decideAt model.Round
	ended    []model.Round
	decided  model.OptValue
}

func (a *oneShotAlg) undecided(call string, k model.Round) {
	if !a.decided.IsBottom() {
		a.t.Errorf("p%d: %s(%d) called after its decision", a.self, call, k)
	}
}

func (a *oneShotAlg) Name() string { return "oneshot" }

func (a *oneShotAlg) StartRound(k model.Round) model.Payload {
	a.undecided("StartRound", k)
	return payload.Estimate{Est: a.v}
}

func (a *oneShotAlg) EndRound(k model.Round, _ []model.Message) {
	a.undecided("EndRound", k)
	a.ended = append(a.ended, k)
	if k >= a.decideAt {
		a.decided = model.Some(a.v)
	}
}

func (a *oneShotAlg) Decision() (model.Value, bool) { return a.decided.Get() }

// TestNodeRelaysAndAdoptsDecide pins the DECIDE rule the node runs for
// every algorithm: p1 decides at round 1, relays DECIDE and is never
// called again; p2–p4, waiting on p1's round-2 message, decide its value
// on the relay without their EndRound being called.
func TestNodeRelaysAndAdoptsDecide(t *testing.T) {
	const n = 4
	hub, err := transport.NewHub(n)
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	eps := make([]transport.Transport, n)
	proposals := make([]model.Value, n)
	for i := range eps {
		if eps[i], err = hub.Endpoint(model.ProcessID(i + 1)); err != nil {
			t.Fatal(err)
		}
		proposals[i] = model.Value(10 * (i + 1))
	}
	algs := make([]*oneShotAlg, n)
	c, err := New(Config{N: n, T: 1, Proposals: proposals, Endpoints: eps, BaseTimeout: time.Hour,
		Factory: func(ctx model.ProcessContext, v model.Value) (model.Algorithm, error) {
			a := &oneShotAlg{t: t, self: ctx.Self, v: v, decideAt: 1000}
			if ctx.Self == 1 {
				a.decideAt = 1
			}
			algs[ctx.Self-1] = a
			return a, nil
		}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	res, err := c.Run(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		wantRound := model.Round(2)
		if i == 0 {
			wantRound = 1
		}
		if r.Decision != model.Some(10) || r.Round != wantRound {
			t.Errorf("p%d decided %v at round %d, want 10 at round %d", i+1, r.Decision, r.Round, wantRound)
		}
		if !reflect.DeepEqual(algs[i].ended, []model.Round{1}) {
			t.Errorf("p%d EndRound rounds %v, want [1]", i+1, algs[i].ended)
		}
	}
}

// recordingAlg sends its proposal as an Estimate each round, keeps the
// backing array and a copy of every receive set it is handed, and decides
// its own proposal after round 3.
type recordingAlg struct {
	v      model.Value
	arrays []*model.Message
	sets   [][]model.Message
}

func (a *recordingAlg) Name() string { return "recording" }

func (a *recordingAlg) StartRound(k model.Round) model.Payload {
	return payload.Estimate{Est: a.v, TS: int(k)}
}

func (a *recordingAlg) EndRound(_ model.Round, delivered []model.Message) {
	a.arrays = append(a.arrays, unsafe.SliceData(delivered))
	a.sets = append(a.sets, slices.Clone(delivered))
}

func (a *recordingAlg) Decision() (model.Value, bool) { return a.v, len(a.sets) >= 3 }

// TestReceiveSetReused: a node hands its algorithm one backing array for
// the receive set of every round, each round holding exactly that round's
// messages in (Round, From) order.
func TestReceiveSetReused(t *testing.T) {
	const n = 4
	hub, err := transport.NewHub(n)
	if err != nil {
		t.Fatal(err)
	}
	defer hub.Close()
	eps := make([]transport.Transport, n)
	proposals := make([]model.Value, n)
	for i := range eps {
		if eps[i], err = hub.Endpoint(model.ProcessID(i + 1)); err != nil {
			t.Fatal(err)
		}
		proposals[i] = model.Value(10 * (i + 1))
	}
	algs := make([]*recordingAlg, n)
	c, err := New(Config{N: n, T: 1, Proposals: proposals, Endpoints: eps, BaseTimeout: time.Hour,
		Factory: func(ctx model.ProcessContext, v model.Value) (model.Algorithm, error) {
			algs[ctx.Self-1] = &recordingAlg{v: v}
			return algs[ctx.Self-1], nil
		}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := c.Run(ctx); err != nil {
		t.Fatal(err)
	}
	for i, a := range algs {
		if len(a.sets) != 3 {
			t.Fatalf("p%d ran %d rounds, want 3", i+1, len(a.sets))
		}
		for r, set := range a.sets {
			k := model.Round(r + 1)
			if a.arrays[r] != a.arrays[0] {
				t.Errorf("p%d round %d: receive set on a new backing array", i+1, k)
			}
			want := make([]model.Message, n)
			for j := range want {
				want[j] = model.Message{From: model.ProcessID(j + 1), Round: k,
					Payload: payload.Estimate{Est: proposals[j], TS: int(k)}}
			}
			if !reflect.DeepEqual(set, want) {
				t.Errorf("p%d round %d:\n got %v\nwant %v", i+1, k, set, want)
			}
		}
	}
}

// TestDecodeSharesEqualPayloads: n = 4 frames from different senders with
// equal payload bytes box one payload between them.
func TestDecodeSharesEqualPayloads(t *testing.T) {
	frames := make([][]byte, 4)
	for i := range frames {
		var err error
		frames[i], err = wire.EncodeMessage(nil, model.Message{From: model.ProcessID(i + 1), Round: 2,
			Payload: payload.Estimate{Est: 7, TS: 1}})
		if err != nil {
			t.Fatal(err)
		}
	}
	nd := &node{cfg: &Config{N: 4}}
	allocs := testing.AllocsPerRun(100, func() {
		nd.lastBytes, nd.lastPayload = nil, nil
		for i, f := range frames {
			m, err := nd.decode(f)
			if err != nil || m.From != model.ProcessID(i+1) || m.Payload != (payload.Estimate{Est: 7, TS: 1}) {
				t.Fatalf("frame %d decoded to %v, %v", i, m, err)
			}
		}
	})
	if allocs != 1 {
		t.Fatalf("%v allocations decoding 4 equal payloads, want 1", allocs)
	}
}
