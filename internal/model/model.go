// Package model defines the round-based computation model of Dutta &
// Guerraoui's "The inherent price of indulgence" (PODC 2002 / Distributed
// Computing 18(1), 2005): process identities, totally ordered proposal
// values with an explicit ⊥, round-stamped messages with deterministic
// digests, and the Algorithm state-machine contract implemented by every
// consensus protocol in this repository.
//
// The model is shared by the two synchrony flavours studied in the paper:
// the synchronous crash-stop model SCS and the eventually synchronous model
// ES. Rounds are communication-closed in the sense that each round has a
// send phase (every live process broadcasts one payload, including to
// itself) followed by a receive phase (the process is handed every message
// the adversary delivers in that round: same-round messages plus, in ES,
// messages delayed from earlier rounds).
package model

import (
	"fmt"
	"math"
)

// ProcessID identifies a process. IDs are 1-based: the paper's processes
// p1..pn map to ProcessID 1..n. The zero value is invalid.
type ProcessID int

// Round is a 1-based round number. Round 0 denotes "before round 1" (for
// example an unset decision round).
type Round int

// Synchrony selects which round-based model a run executes under.
type Synchrony int

const (
	// SCS is the synchronous crash-stop model: a message sent in round k
	// is delivered in round k unless its sender crashed in round k, in
	// which case any subset of its round-k messages may be lost.
	SCS Synchrony = iota + 1
	// ES is the eventually synchronous model: runs may be asynchronous
	// (messages delayed, processes falsely suspected) for an arbitrary yet
	// finite prefix, but from an unknown global stabilization round (the
	// paper's K, the schedule's GSR) behaviour is synchronous. Every run
	// additionally satisfies t-resilience and reliable channels.
	ES
)

// String implements fmt.Stringer.
func (s Synchrony) String() string {
	switch s {
	case SCS:
		return "SCS"
	case ES:
		return "ES"
	default:
		return fmt.Sprintf("Synchrony(%d)", int(s))
	}
}

// Value is a proposal/decision value. Values form a totally ordered set
// (assumption 4 of the paper, Sect. 3): the natural int64 order is used
// everywhere a minimum is taken.
type Value int64

// NoValue is a sentinel outside the proposable range. It is never a legal
// proposal and only appears as a zero-like placeholder in internal state.
const NoValue Value = math.MinInt64

// OptValue is a value from V ∪ {⊥}: either a concrete Value or the paper's
// ⊥ (bottom), used for the new estimates nE of algorithm A_{t+2}.
// The zero OptValue is ⊥.
type OptValue struct {
	v    Value
	some bool
}

// Some returns the OptValue holding v.
func Some(v Value) OptValue { return OptValue{v: v, some: true} }

// Bottom returns ⊥.
func Bottom() OptValue { return OptValue{} }

// Get returns the held value and whether one is present (false means ⊥).
func (o OptValue) Get() (Value, bool) { return o.v, o.some }

// IsBottom reports whether o is ⊥.
func (o OptValue) IsBottom() bool { return !o.some }

// String implements fmt.Stringer.
func (o OptValue) String() string {
	if !o.some {
		return "⊥"
	}
	return fmt.Sprintf("%d", int64(o.v))
}

// ProcessContext is the static configuration a process knows about the
// system it runs in.
type ProcessContext struct {
	// Self is the identity of this process (1..N).
	Self ProcessID
	// N is the total number of processes.
	N int
	// T is the resilience bound: the maximum number of processes that may
	// crash in any run.
	T int
}

// Validate reports whether the context is internally consistent. It does
// not enforce algorithm-specific resilience requirements (such as t < n/2
// for indulgent algorithms); constructors enforce those.
func (c ProcessContext) Validate() error {
	switch {
	case c.N < 1:
		return fmt.Errorf("model: n must be positive, got %d", c.N)
	case c.N > MaxProcesses:
		return fmt.Errorf("model: n must be at most %d, got %d", MaxProcesses, c.N)
	case c.T < 0 || c.T >= c.N:
		return fmt.Errorf("model: t must be in [0, n), got t=%d n=%d", c.T, c.N)
	case c.Self < 1 || int(c.Self) > c.N:
		return fmt.Errorf("model: self must be in [1, %d], got %d", c.N, c.Self)
	}
	return nil
}

// Quorum returns n − t, the number of same-round messages every process is
// guaranteed to receive each round in ES (t-resilience).
func (c ProcessContext) Quorum() int { return c.N - c.T }

// Majority returns ⌊n/2⌋ + 1.
func (c ProcessContext) Majority() int { return c.N/2 + 1 }

// MajorityCorrect reports whether the context satisfies the indulgence
// resilience requirement t < n/2 from [Chandra & Toueg 1996] recalled in
// Sect. 1.1 of the paper.
func (c ProcessContext) MajorityCorrect() bool { return 2*c.T < c.N }

// Message is a round-stamped message. Round is the round in which the
// message was sent; in ES it may be delivered in a later round.
type Message struct {
	From    ProcessID
	Round   Round
	Payload Payload
}

// AppendDigest appends a deterministic encoding of m to dst and returns the
// extended slice.
func (m Message) AppendDigest(dst []byte) []byte {
	dst = AppendDigestInt(dst, int64(m.From))
	dst = AppendDigestInt(dst, int64(m.Round))
	if m.Payload == nil {
		return AppendDigestString(dst, "")
	}
	dst = AppendDigestString(dst, m.Payload.Kind())
	return m.Payload.AppendDigest(dst)
}

// Payload is the algorithm-specific content of a message. A payload is a
// value, as a message is in the paper's round model: once StartRound has
// returned it, it is never mutated again — not by the sender, not by any
// receiver. Every round engine relies on that: the simulator hands one
// payload to every receiver and keeps it in a recorded trace, and the live
// node hands one decoded payload to every frame with equal bytes.
// AppendDigest must be a deterministic, injective-per-Kind encoding (it
// drives run digests and the indistinguishability checks behind the
// paper's lower-bound argument).
type Payload interface {
	// Kind returns a short stable identifier of the payload type, unique
	// across all payload types in the repository (used by digests and the
	// wire codec).
	Kind() string
	// AppendDigest appends a deterministic encoding of the payload to dst.
	AppendDigest(dst []byte) []byte
}

// Algorithm is the deterministic round state machine executed by one
// process. The simulator (and the live runtime) drive it as follows, for
// rounds k = 1, 2, ...:
//
//  1. StartRound(k) is called once at the beginning of round k; the
//     returned payload is broadcast to all processes including the sender
//     (self-delivery is always in-round and processes never suspect
//     themselves, assumption 2 of Sect. 3). A nil payload is sent as-is
//     (an empty dummy message, footnote 1 of the paper).
//  2. EndRound(k, delivered) is called once with every message delivered
//     in round k's receive phase: all round-k messages the adversary
//     delivers on time plus, in ES, older messages whose delay expires at
//     round k. Messages are sorted by (Round, From). The delivered slice
//     is only valid for the duration of the call (the simulator reuses its
//     backing array across rounds); algorithms that retain messages must
//     copy the slice. Payloads inside delivered messages are shared with
//     the sender and the other recipients and are never mutated (see
//     Payload); an algorithm that needs different contents builds a new
//     payload.
//
// Decision reports the decided value as soon as the algorithm decides;
// it is asked after every EndRound. Once it reports, the algorithm is
// never called again.
//
// The rule that lets processes that have not yet decided still do so
// belongs to the round engines, not to the algorithm: a decided process
// sends DECIDE once, in the round after its decision, and halts (the
// lockstep simulator and the live runtime alike), and a process whose
// round-k receive set holds a DECIDE of any round decides its value
// without EndRound(k) being called. An algorithm neither sends nor reads
// DECIDE.
type Algorithm interface {
	// Name returns a short human-readable algorithm name.
	Name() string
	// StartRound returns the payload to broadcast in round k.
	StartRound(k Round) Payload
	// EndRound delivers the messages received in round k.
	EndRound(k Round, delivered []Message)
	// Decision returns the decided value, if any.
	Decision() (Value, bool)
}

// Factory constructs one process's algorithm instance. It is invoked once
// per process at the start of a run with that process's context and
// proposal.
type Factory func(ctx ProcessContext, proposal Value) (Algorithm, error)

// Resetter is implemented by algorithm instances that can start a new run
// without being rebuilt. Reset(proposal) returns the instance to the state
// its factory built for the same ProcessContext and that proposal: every
// field a run changed is restored, and nothing of the earlier run (an
// estimate, a suspicion, a decision, a sub-instance built on demand) can
// show in the next one. A payload the instance returned before the reset
// is never mutated by it (see Payload). Reset must not be called while a
// run still drives the instance, and it assumes the factory would have
// accepted the proposal: it cannot report an error. The explorer's
// workers reuse their instances this way, one wrapper around the
// configured Factory each, so a simulated run builds none.
type Resetter interface {
	Reset(proposal Value)
}

// MaxProcesses bounds n so that PIDSet fits in a machine word.
const MaxProcesses = 64
