package journal

import (
	"math/bits"

	"indulgence/internal/model"
	"indulgence/internal/wire"
)

// pageBits sets the decision index's page range: one page covers the
// pageSlots consecutive instance IDs that share instance>>pageBits.
const (
	pageBits  = 10
	pageSlots = 1 << pageBits
)

// page holds the decisions of the instance IDs in its range. present
// has one bit per ID of the range; the columns hold one slot per set
// bit, in ID order, so an ID's slot is the count of set bits below its
// own (its rank) and stores no instance ID. A slot is 28 bytes with no
// padding — value, round, group and a meta word batch<<3 | class —
// whatever the spacing of the decided IDs: a group's strided IDs (g,
// g+G, …) pay for their slots what consecutive ones do, and only the
// page's fixed part is shared by fewer decisions.
type page struct {
	present [pageSlots / 64]uint64
	value   []model.Value
	round   []model.Round
	group   []uint64
	// meta is batch<<3 | class. Append refuses a batch or class beyond
	// what wire.DecodeDecisionRecord reads back: a batch up to
	// wire.MaxFrameSize fits 21 bits, a class up to wire.MaxClassValue
	// (7) fits 3.
	meta []uint32
	// loose marks columns grown past their length since the page was
	// last trimmed.
	loose bool
}

// rank returns the number of decided IDs in p below offset i.
func (p *page) rank(i uint64) int {
	n := bits.OnesCount64(p.present[i/64] & (1<<(i%64) - 1))
	for _, w := range p.present[:i/64] {
		n += bits.OnesCount64(w)
	}
	return n
}

// shift places v at k in s, whose last slot is free, moving the slots
// from k up by one.
func shift[T any](s []T, k int, v T) {
	copy(s[k+1:], s[k:])
	s[k] = v
}

// realloc returns s's slots in an array of capacity n.
func realloc[T any](s []T, n int) []T {
	t := make([]T, len(s), n)
	copy(t, s)
	return t
}

// resize moves p's columns into arrays of capacity n.
func (p *page) resize(n int) {
	p.value, p.round, p.group, p.meta = realloc(p.value, n), realloc(p.round, n), realloc(p.group, n), realloc(p.meta, n)
}

// trim shrinks p's columns to their length.
func (p *page) trim() {
	if n := len(p.meta); n < cap(p.meta) {
		p.resize(n)
	}
	p.loose = false
}

// index maps each decided instance to its last journaled decision: a
// page table keyed by instance>>pageBits. Get is a map lookup, a rank
// (at most pageSlots/64 popcounts) and a column read; Len a counter.
// Decisions arrive nearly in instance order, so a page's slack is
// trimmed once the index opens a page two ranges above it: every page
// but the newest two then holds exactly its decisions. A decision that
// lands in a trimmed page regrows it, at the cost of one copy of its
// columns.
type index struct {
	pages map[uint64]*page
	n     int // occupied slots: distinct decided instances
	top   uint64
	loose []uint64 // keys of pages whose columns have slack
}

// put records r, replacing any earlier record of its instance (the last
// journaled record of an instance wins).
func (x *index) put(r wire.DecisionRecord) {
	key, i := r.Instance>>pageBits, r.Instance&(pageSlots-1)
	p := x.pages[key]
	if p == nil {
		if x.pages == nil {
			x.pages = make(map[uint64]*page)
		}
		p = new(page)
		x.pages[key] = p
		if key > x.top {
			x.top = key
			x.trimBelow(key - 1)
		}
	}
	k, meta := p.rank(i), uint32(r.Batch)<<3|uint32(r.Class)
	if p.present[i/64]&(1<<(i%64)) != 0 {
		p.value[k], p.round[k], p.group[k], p.meta[k] = r.Value, r.Round, r.Group, meta
		return
	}
	if len(p.meta) == cap(p.meta) {
		// Columns double up to pageSlots, so a dense page ends with
		// every slot in use.
		p.resize(min(max(2*cap(p.meta), 4), pageSlots))
		if !p.loose {
			p.loose = true
			x.loose = append(x.loose, key)
		}
	}
	p.present[i/64] |= 1 << (i % 64)
	n := len(p.meta) + 1
	p.value = p.value[:n]
	p.round = p.round[:n]
	p.group = p.group[:n]
	p.meta = p.meta[:n]
	shift(p.value, k, r.Value)
	shift(p.round, k, r.Round)
	shift(p.group, k, r.Group)
	shift(p.meta, k, meta)
	x.n++
}

// trimBelow trims every loose page keyed below key.
func (x *index) trimBelow(key uint64) {
	kept := x.loose[:0]
	for _, k := range x.loose {
		if k < key {
			x.pages[k].trim()
		} else {
			kept = append(kept, k)
		}
	}
	x.loose = kept
}

// get returns the record of instance, if one was put.
func (x *index) get(instance uint64) (wire.DecisionRecord, bool) {
	i := instance & (pageSlots - 1)
	p := x.pages[instance>>pageBits]
	if p == nil || p.present[i/64]&(1<<(i%64)) == 0 {
		return wire.DecisionRecord{}, false
	}
	k := p.rank(i)
	m := p.meta[k]
	return wire.DecisionRecord{Instance: instance, Value: p.value[k], Round: p.round[k],
		Batch: int(m >> 3), Group: p.group[k], Class: int(m & 7)}, true
}
