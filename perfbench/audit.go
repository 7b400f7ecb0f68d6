package main

import (
	"fmt"
	"math"

	"indulgence"
	"indulgence/internal/workload"
)

// noopValue is the value a peer member proposes when it joins an
// instance with nothing queued (PeerServiceOptions.NoopValue's default).
const noopValue = indulgence.Value(math.MaxInt64)

// audit checks the generator's own records: all futures that resolved
// to one instance carry one value — across members — and, on one
// service, one round (peer members report their own node's decision
// round, which may legitimately differ by member); every decided value
// was proposed (or is the peer noop); and no service or member reports
// a violation.
func (st *stack) audit(recs []record) []string {
	var findings []string
	type outcome struct {
		value indulgence.Value
		round int32
	}
	seen := make(map[uint64]outcome)
	issued := st.seq.Load()
	for i := range recs {
		r := &recs[i]
		if r.failed {
			continue
		}
		got := outcome{r.value, r.round}
		prev, ok := seen[r.instance]
		switch {
		case !ok:
			seen[r.instance] = got
			if !st.proposed(got.value, issued) {
				findings = append(findings, fmt.Sprintf("validity: instance %d decided %d, which was never proposed", r.instance, got.value))
			}
		case prev.value != got.value:
			findings = append(findings, fmt.Sprintf("agreement: instance %d resolved to %d and to %d", r.instance, prev.value, got.value))
		case prev.round != got.round && !st.spec.peers:
			findings = append(findings, fmt.Sprintf("agreement: instance %d resolved at round %d and at round %d", r.instance, prev.round, got.round))
		}
	}
	for i, s := range st.snapshots() {
		for _, v := range s.Violations {
			findings = append(findings, fmt.Sprintf("member %d: %s", i+1, v))
		}
	}
	return findings
}

// proposed reports whether v is a value this stack's generator issued.
// workload.Value is linear in the sequence number, so the candidate
// sequence number is computed and then re-evaluated — no set of issued
// values is kept, and if Value ever stops being linear the
// re-evaluation fails the audit loudly instead of passing it.
func (st *stack) proposed(v indulgence.Value, issued int64) bool {
	if st.spec.peers && v == noopValue {
		return true
	}
	first := workload.Value(st.seed, 0)
	stride := workload.Value(st.seed, 1) - first
	seq := int64((v - first) / stride)
	return seq >= 0 && seq < issued && workload.Value(st.seed, int(seq)) == v
}

// auditJournal replays the closed journal and cross-checks it against
// the acknowledged decisions: an acknowledged decision missing or
// different on disk is a finding.
func auditJournal(dir string, acked []decision) []string {
	var (
		records []indulgence.DecisionRecord
		starts  []indulgence.StartRecord
	)
	_, err := indulgence.ReplayJournal(dir, func(e indulgence.JournalEntry) error {
		switch {
		case e.Trace != nil:
		case e.Start:
			starts = append(starts, indulgence.StartRecord{Instance: e.Decision.Instance, Alg: e.Alg, Group: e.Decision.Group})
		default:
			records = append(records, e.Decision)
		}
		return nil
	})
	if err != nil {
		return []string{fmt.Sprintf("journal replay: %v", err)}
	}
	live := make(map[uint64]indulgence.Value, len(acked))
	for _, d := range acked {
		live[d.instance] = d.value
	}
	onDisk := make(map[uint64]bool, len(records))
	for _, r := range records {
		onDisk[r.Instance] = true
	}
	var findings []string
	for _, d := range acked {
		if !onDisk[d.instance] {
			findings = append(findings, fmt.Sprintf("durability: acknowledged instance %d is not in the journal", d.instance))
		}
	}
	return append(findings, indulgence.CheckReplay(records, starts, live).Violations...)
}
