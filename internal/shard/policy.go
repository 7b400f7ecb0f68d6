// Package shard is the runtime every caller above the service layer
// starts: it runs G ≥ 1 independent consensus groups — each with its own
// strided slice of the instance-ID space and its own adaptive control
// plane — multiplexed over one shared set of transport muxes and
// appending to the caller's one journal, with a router in front that
// places each proposal on a group under a pluggable policy. One group is
// a parameter value, not a second code path.
//
// The paper's price of indulgence is a per-instance quantity: every
// instance pays its t+2 round floor no matter what. Sharding does not
// lower that price; it buys aggregate throughput by paying it on G
// instances concurrently — groups share the physical connections and the
// journal but no batch or instance, so one group's slow instance (an
// injected partition, a crashed member) never holds another group's
// batches. The strided allocation keeps the groups' instance IDs
// globally unique, and an ID names its group (instance mod G), so the
// shared muxes route and retire by instance alone and no frame carries a
// group; it is also what lets every group append to one journal and
// check.Replay audit a member's journal in one pass, calling any
// instance ID seen under two groups a violation.
package shard

import (
	"fmt"
	"hash/fnv"
	"sync/atomic"
)

// Group is the load view a placement policy sees of one consensus
// group: service.Service satisfies it, and the policy property tests
// substitute scripted loads.
type Group interface {
	// Group returns the group's consensus group number.
	Group() uint64
	// Occupancy reports the group's intake-buffer fill and capacity.
	Occupancy() (used, capacity int)
	// Shedding reports whether the group's admission gate is currently
	// rejecting proposals with adapt.ErrOverload.
	Shedding() bool
}

// Policy places proposals on groups. Pick returns an index into groups
// (which the router passes in ascending group-ID order, and which is
// never empty); implementations must be safe for concurrent use — the
// router calls Pick from every proposer goroutine.
type Policy interface {
	// Name identifies the policy ("round-robin", "least-loaded",
	// "key-affinity").
	Name() string
	// Pick chooses the group for a proposal. key is the proposal's
	// routing key: an affinity policy sends equal keys to equal groups;
	// load- and rotation-based policies may ignore it.
	Pick(key uint64, groups []Group) int
}

// NewRoundRobin returns the rotation policy: successive picks cycle
// through the groups in order, so any window of len(groups)*k
// consecutive picks places exactly k proposals on every group. The key
// is ignored.
func NewRoundRobin() Policy { return &roundRobin{} }

type roundRobin struct{ next atomic.Uint64 }

func (p *roundRobin) Name() string { return "round-robin" }

func (p *roundRobin) Pick(_ uint64, groups []Group) int {
	return int((p.next.Add(1) - 1) % uint64(len(groups)))
}

// NewLeastLoaded returns the load-balancing policy: each pick goes to
// the group with the smallest intake occupancy fraction, skipping
// groups whose admission gate is shedding as long as any non-shedding
// group exists (a shedding group is telling its clients to back off;
// routing fresh load at it while a sibling has room would manufacture
// ErrOverload). Ties break to the lower group index. When every group
// is shedding there is nothing to route around, and the least-occupied
// group overall is picked. The key is ignored.
func NewLeastLoaded() Policy { return leastLoaded{} }

type leastLoaded struct{}

func (leastLoaded) Name() string { return "least-loaded" }

func (leastLoaded) Pick(_ uint64, groups []Group) int {
	best := -1
	var bestUsed, bestCap int
	// lighter reports whether occupancy used/capacity is strictly below
	// the best so far, by integer cross-multiplication (capacities can
	// differ when control planes grew different intake ceilings).
	lighter := func(used, capacity int) bool {
		if best < 0 {
			return true
		}
		return used*bestCap < bestUsed*capacity
	}
	pass := func(includeShedding bool) {
		for i, g := range groups {
			if !includeShedding && g.Shedding() {
				continue
			}
			if used, capacity := g.Occupancy(); lighter(used, capacity) {
				best, bestUsed, bestCap = i, used, capacity
			}
		}
	}
	pass(false)
	if best < 0 {
		pass(true)
	}
	return best
}

// NewKeyAffinity returns the affinity policy: rendezvous (highest-
// random-weight) hashing over (key, group ID), so one key always lands
// on one group as long as the group set is equal — and when the set
// changes, only the keys whose winning group left move. Affinity is the
// policy for workloads whose proposals are ordered per key: everything
// about a key serializes through one group's batcher.
func NewKeyAffinity() Policy { return keyAffinity{} }

type keyAffinity struct{}

func (keyAffinity) Name() string { return "key-affinity" }

func (keyAffinity) Pick(key uint64, groups []Group) int {
	best, bestWeight := 0, uint64(0)
	for i, g := range groups {
		if w := rendezvous(key, g.Group()); i == 0 || w > bestWeight {
			best, bestWeight = i, w
		}
	}
	return best
}

// rendezvous is the weight of placing key on group: FNV-1a over both
// IDs in fixed-width big-endian.
func rendezvous(key, group uint64) uint64 {
	h := fnv.New64a()
	var b [16]byte
	for i := 0; i < 8; i++ {
		b[i] = byte(key >> (56 - 8*i))
		b[8+i] = byte(group >> (56 - 8*i))
	}
	_, _ = h.Write(b[:])
	return h.Sum64()
}

// ParsePolicy maps a CLI policy name to its Policy.
func ParsePolicy(name string) (Policy, error) {
	switch name {
	case "round-robin", "":
		return NewRoundRobin(), nil
	case "least-loaded":
		return NewLeastLoaded(), nil
	case "key-affinity":
		return NewKeyAffinity(), nil
	default:
		return nil, fmt.Errorf("shard: unknown placement policy %q (want round-robin, least-loaded or key-affinity)", name)
	}
}
