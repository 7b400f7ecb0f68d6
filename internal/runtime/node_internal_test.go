package runtime

import (
	"context"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"indulgence/internal/chaos/clock"
	"indulgence/internal/core"
	"indulgence/internal/fd"
	"indulgence/internal/model"
	"indulgence/internal/payload"
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

// TestCollectDeliveryOrder pins collect's receive set against a
// reference sort: whatever order frames arrive in — round-k messages,
// late ones from earlier rounds, a future-round one, a duplicate, and the
// round-k DECIDE that ends the phase — the delivered set is exactly the
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
			// p3's round-k message arrived during an earlier round.
			buffered: map[model.Round][]model.Message{k: {est(3, k)}},
		}
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
		if last := order[len(arrivals)-len(ep.ch)-1]; arrivals[last].Round != k || !isDecide(arrivals[last]) {
			t.Fatalf("trial %d: phase ended on %v, not on the DECIDE", trial, arrivals[last])
		}
	}
}
