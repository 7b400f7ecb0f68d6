package chaos

import (
	"hash/fnv"
	"time"

	"indulgence/internal/chaos/clock"
	"indulgence/internal/model"
	"indulgence/internal/transport"
)

// Network is a scenario's fault fabric: it wraps a transport's
// endpoints so that every frame crossing a faulted link is delayed,
// "dropped" (delayed to the horizon), duplicated or held behind a
// partition, all on the scenario's clock.
//
// Every per-frame decision is a pure function of (seed, from, to,
// frame bytes): a hash roll, not a stateful PRNG draw. Concurrent
// senders therefore cannot perturb each other's fault outcomes — the
// decisions commute, which is what makes a seed replayable regardless
// of goroutine interleaving inside one virtual instant.
type Network struct {
	sc    Scenario
	clk   *clock.Virtual
	start time.Time
	links map[linkKey]LinkFault
}

type linkKey struct{ from, to model.ProcessID }

// newNetwork builds the fault network for sc on clk (NewFabric is its
// one caller). The scenario's time offsets are measured from clk's
// current instant.
func newNetwork(sc Scenario, clk *clock.Virtual) *Network {
	nw := &Network{
		sc:    sc,
		clk:   clk,
		start: clk.Now(),
		links: make(map[linkKey]LinkFault, len(sc.Links)),
	}
	for _, l := range sc.Links {
		k := linkKey{l.From, l.To}
		// Two faults on one link compose: delays add, probabilities
		// saturate. (The generator emits at most one plus a gray-link
		// overlay.)
		f := nw.links[k]
		f.From, f.To = l.From, l.To
		f.Delay += l.Delay
		f.Jitter += l.Jitter
		f.DropP = clamp01(f.DropP + l.DropP)
		f.DupP = clamp01(f.DupP + l.DupP)
		nw.links[k] = f
	}
	return nw
}

func clamp01(p float64) float64 {
	if p > 1 {
		return 1
	}
	return p
}

// Wrap returns a fault-injecting view of ep. Self-sends bypass the
// fabric: a process always hears itself, per the model.
func (nw *Network) Wrap(ep transport.Transport) transport.Transport {
	return &endpoint{nw: nw, inner: ep, self: ep.Self()}
}

type endpoint struct {
	nw    *Network
	inner transport.Transport
	self  model.ProcessID
}

func (e *endpoint) Self() model.ProcessID { return e.self }
func (e *endpoint) Recv() <-chan []byte   { return e.inner.Recv() }
func (e *endpoint) Close() error          { return e.inner.Close() }

// hopDelay is the floor on every cross-process delivery: even an
// unfaulted frame takes one virtual microsecond. This is what makes a
// run replayable — every delivery is a clock event, so the set of
// frames a process has seen at any instant is a function of virtual
// time and frame contents, never of goroutine interleaving. Same-
// instant deliveries fire in frame-hash order via the clock's tagged
// events (see clock.Virtual's AfterFuncTagged).
const hopDelay = time.Microsecond

func (e *endpoint) Send(to model.ProcessID, frame []byte) error {
	if to == e.self {
		// A process hears itself synchronously, per the model; its own
		// mailbox is FIFO under its own sends, so no event is needed.
		return e.inner.Send(to, frame)
	}
	for i, d := range e.nw.plan(e.self, to, frame) {
		// Every delivered copy is the frame itself: a frame is immutable
		// once sent (see transport.Transport), and fault rolls hash its
		// bytes, not its identity. A send racing the hub's close simply
		// vanishes — the scenario is over by then.
		tag := e.nw.hash(e.self, to, saltTag+i, frame)
		e.nw.clk.AfterFuncTagged(d+hopDelay, tag|1, func() { _ = e.inner.Send(to, frame) })
	}
	return nil
}

// Salts separating the independent hash rolls derived from one frame.
const (
	saltDrop = iota
	saltDup
	saltJitter
	saltDupGap
	saltHorizon
	saltTag // +i for the i'th delivered copy
)

// plan returns the delivery delays for one frame on from→to: one entry
// per delivered copy (so usually one; two when duplicated).
func (nw *Network) plan(from, to model.ProcessID, frame []byte) []time.Duration {
	now := nw.clk.Now().Sub(nw.start)
	lf := nw.links[linkKey{from, to}]

	d := lf.Delay
	if lf.Jitter > 0 {
		d += time.Duration(nw.roll(from, to, saltJitter, frame) * float64(lf.Jitter))
	}
	if lf.DropP > 0 && nw.roll(from, to, saltDrop, frame) < lf.DropP {
		// "Drop" = delay to just past the horizon; the stagger keeps a
		// burst of dropped frames from landing in one instant.
		late := nw.sc.Horizon - now + time.Duration(nw.roll(from, to, saltHorizon, frame)*float64(nw.sc.BaseTimeout))
		if late > d {
			d = late
		}
	}
	// A frame sent into a partition window is held until the heal
	// instant (plus its link delay): the ES adversary may not destroy
	// it, only defer it.
	for _, p := range nw.sc.Partitions {
		if now < p.From || now >= p.Until || !cuts(p, from, to) {
			continue
		}
		if heal := p.Until - now; heal > d {
			d = heal
		}
	}
	delays := []time.Duration{d}
	if lf.DupP > 0 && nw.roll(from, to, saltDup, frame) < lf.DupP {
		gap := time.Duration(nw.roll(from, to, saltDupGap, frame) * float64(lf.Jitter+time.Millisecond))
		delays = append(delays, d+gap+time.Microsecond)
	}
	return delays
}

// cuts reports whether the partition blocks from→to.
func cuts(p Partition, from, to model.ProcessID) bool {
	if contains(p.A, from) && contains(p.B, to) {
		return true
	}
	if !p.OneWay && contains(p.B, from) && contains(p.A, to) {
		return true
	}
	return false
}

func contains(ps []model.ProcessID, p model.ProcessID) bool {
	for _, q := range ps {
		if q == p {
			return true
		}
	}
	return false
}

// hash digests (seed, from, to, salt, frame) with FNV-64a.
func (nw *Network) hash(from, to model.ProcessID, salt int, frame []byte) uint64 {
	h := fnv.New64a()
	var hdr [8 + 3]byte
	u := uint64(nw.sc.Seed)
	for i := 0; i < 8; i++ {
		hdr[i] = byte(u >> (8 * i))
	}
	hdr[8], hdr[9], hdr[10] = byte(from), byte(to), byte(salt)
	h.Write(hdr[:])
	h.Write(frame)
	return h.Sum64()
}

// roll maps a hash to a float in [0,1).
func (nw *Network) roll(from, to model.ProcessID, salt int, frame []byte) float64 {
	return float64(nw.hash(from, to, salt, frame)>>11) / float64(1<<53)
}
