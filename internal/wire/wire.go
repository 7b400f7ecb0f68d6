// Package wire is the binary codec for round messages, used by the live
// runtime's transports (in-memory and TCP). Messages are encoded as a
// one-byte payload tag followed by varint-encoded fields; on the stream
// they travel in length-prefixed frames. The encoding is deterministic and
// self-contained — no reflection, no registration at run time — so the
// codec is also usable as a stable on-disk format for recorded runs.
//
// # Stream frames
//
// On a stream a frame is a 4-byte big-endian length and that many bytes
// (at most MaxFrameSize). AppendFrame is the one writer of the layout:
// writers coalesce frames into one buffer and one Write. FrameReader is
// the one reader: it owns one 4 KiB chunk at a time, each Read takes
// whatever the stream holds into the chunk's spare capacity, and each
// frame comes back as a capacity-limited slice of the chunk. A new chunk
// is allocated only when the next frame does not fit in the rest of the
// current one, so a frame handed out is never written again; a frame
// larger than a chunk gets a buffer of its own, and an oversized length
// fails before anything is allocated. See stream.go.
//
// # Frame versions
//
// The original frame layout (version 0) is a bare message: varint sender,
// varint round, tag-prefixed payload. The multi-instance service layer
// wraps messages in a version-1 envelope — the marker byte 0x01 followed
// by a uvarint consensus-instance ID and then the bare message — so that
// many concurrent instances can share one physical connection. The two
// layouts are distinguishable from the first byte alone: a bare message
// starts with the zigzag varint of its sender (a ProcessID in
// [1, model.MaxProcesses], whose first encoded byte is never 0x01), so
// version-0 frames decode unchanged as instance 0. Old readers are
// insulated the other way by the frame length prefix: they fail cleanly
// on the unknown marker instead of misparsing.
//
// The version-2 envelope — the marker byte 0x09 followed by a uvarint
// consensus-group ID and then the uvarint instance ID and bare message —
// once kept the frames of a process's consensus groups apart. Nothing
// writes it any more: a process runs one group and sends the version-0/1
// layouts. StripGroup still reads it, and both earlier layouts decode as
// group 0.
// See group.go.
//
// # Record kinds
//
// The envelope family carries seven record kinds besides messages, each
// opening with its own marker byte (table in record.go): the decision
// journal's DecisionRecord (0x03), StartRecord (0x05) — the claim that an
// instance ID is about to touch the network, tagged with the algorithm
// it is launched with — and DecisionTraceRecord (0x11, the control-plane
// context of one launch choice); the TCP handshake's HelloRecord (0x07);
// and the workload trace files' TraceHeaderRecord (0x0B),
// TraceEventRecord (0x0D) and TraceOutcomeRecord (0x0F). Like the
// envelope markers these odd bytes can never open a version-0 frame, so
// every kind is decidable from its first byte.
//
// # Decoding
//
// Every record decoder runs on one unexported cursor (record.go):
// openRecord checks the marker, each field read advances, and the first
// failure sticks — input that ends early is ErrTruncated, a value out of
// range ErrUnknownPayload, both naming kind and field — so a decoder is
// a struct literal reading the fields in wire order plus one error
// check, and an optional trailing field (the legacy pre-group, pre-class
// and tag-less layouts) is one "if more bytes remain". A reader of mixed
// records switches on KindOf, so one decoder runs per payload.
//
// On disk, records travel in CRC frames: AppendCRCFrame puts a 4-byte
// length and a 4-byte CRC-32C in front of a payload encoded in place;
// ReadCRCFrame tells a frame the input ends inside, an oversized length
// and a checksum mismatch apart. What each means is the caller's policy:
// to the journal any of them, or a payload that is not exactly one
// record, is the torn tail at that offset; a trace file drops a frame it
// ends inside, or a final frame failing its checksum, as the torn tail
// and fails on anything else.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"

	"indulgence/internal/model"
	"indulgence/internal/payload"
)

// Codec errors.
var (
	// ErrTruncated reports an encoding shorter than its structure.
	ErrTruncated = errors.New("wire: truncated message")
	// ErrUnknownPayload reports an unknown payload tag or type.
	ErrUnknownPayload = errors.New("wire: unknown payload")
	// ErrFrameTooLarge reports a frame exceeding the reader's limit.
	ErrFrameTooLarge = errors.New("wire: frame too large")
)

// Payload tags. Tag 0 encodes a nil payload.
const (
	tagNil byte = iota
	tagValues
	tagEstHalt
	tagNewEstimate
	tagDecide
	tagEstimate
	tagPropose
	tagAck
	tagAckEst
	tagAdopt
	tagWrap
)

// MaxFrameSize bounds decoded frames (1 MiB is far beyond any round
// message in this repository).
const MaxFrameSize = 1 << 20

// AppendInstanceHeader appends the version-1 envelope header addressing
// instance to dst. The bytes of a version-0 frame appended afterwards form
// a complete version-1 frame; StripInstance undoes exactly this header.
func AppendInstanceHeader(dst []byte, instance uint64) []byte {
	dst = append(dst, instanceMarker)
	return binary.AppendUvarint(dst, instance)
}

// StripInstance splits a frame into its consensus-instance ID and the bare
// message bytes. Version-0 frames (no envelope) are returned whole as
// instance 0, so pre-instance peers interoperate with the multiplexed
// transport unchanged.
func StripInstance(frame []byte) (instance uint64, inner []byte, err error) {
	if len(frame) == 0 {
		return 0, nil, fmt.Errorf("%w: empty frame", ErrTruncated)
	}
	if frame[0] != instanceMarker {
		return 0, frame, nil
	}
	id, n := binary.Uvarint(frame[1:])
	if n <= 0 {
		return 0, nil, fmt.Errorf("%w: instance id", ErrTruncated)
	}
	return id, frame[1+n:], nil
}

// EncodeInstanceMessage appends the version-1 encoding of m addressed to
// instance. Encoding to instance 0 still emits the envelope; use
// EncodeMessage for version-0 frames.
func EncodeInstanceMessage(dst []byte, instance uint64, m model.Message) ([]byte, error) {
	return EncodeMessage(AppendInstanceHeader(dst, instance), m)
}

// DecisionRecord is the durable record of one decided consensus
// instance: what the journal appends before a decision is served and
// what recovery replays to rebuild the instance frontier.
type DecisionRecord struct {
	// Instance identifies the consensus instance.
	Instance uint64
	// Value is the instance's decided value.
	Value model.Value
	// Round is the instance's global decision round (the slowest
	// process's decision round).
	Round model.Round
	// Batch is the number of proposals the instance committed.
	Batch int
	// Group is the consensus group the instance was decided under (0
	// for single-group deployments and every record written before
	// groups existed). check.Replay uses it to flag an instance ID
	// journaled under two different groups.
	Group uint64
	// Class is the highest SLO class among the proposals the instance
	// committed (0 for unclassed traffic and every record written
	// before classes existed). check.Replay uses it to flag an
	// instance ID journaled under two different classes.
	Class int
}

// MaxClassValue bounds the SLO class a record may carry; it matches
// adapt.MaxClasses-1 without importing the package.
const MaxClassValue = 7

// AppendDecisionRecord appends the encoding of r to dst and returns the
// extended slice. The layout is the record marker followed by uvarint
// instance, varint value, varint round and uvarint batch, with trailing
// uvarint group and uvarint class fields appended only when set —
// group-0 class-0 records stay byte-identical to the pre-group layout,
// and DecodeDecisionRecord reads records that end early as zero. A
// class > 0 forces the group field (even group 0) so the two trailing
// fields stay positionally unambiguous.
func AppendDecisionRecord(dst []byte, r DecisionRecord) []byte {
	dst = append(dst, recordMarker)
	dst = binary.AppendUvarint(dst, r.Instance)
	dst = binary.AppendVarint(dst, int64(r.Value))
	dst = binary.AppendVarint(dst, int64(r.Round))
	dst = binary.AppendUvarint(dst, uint64(r.Batch))
	if r.Group > 0 || r.Class > 0 {
		dst = binary.AppendUvarint(dst, r.Group)
	}
	if r.Class > 0 {
		dst = binary.AppendUvarint(dst, uint64(r.Class))
	}
	return dst
}

// DecodeDecisionRecord decodes one record from b, returning it and the
// number of bytes consumed.
func DecodeDecisionRecord(b []byte) (DecisionRecord, int, error) {
	c := openRecord(b, KindDecision)
	r := DecisionRecord{
		Instance: c.uvarint("instance"),
		Value:    model.Value(c.varint("value")),
		Round:    model.Round(c.varint("round")),
		Batch:    int(c.bounded("batch", MaxFrameSize)),
	}
	if c.more() {
		r.Group = c.uvarint("group")
	}
	if c.more() {
		r.Class = int(c.bounded("class", MaxClassValue))
	}
	if c.err != nil {
		return DecisionRecord{}, 0, c.err
	}
	return r, c.off, nil
}

// MaxAlgNameLen bounds the algorithm tag a start record may carry.
const MaxAlgNameLen = 64

// StartRecord claims an instance ID for one consensus instance.
type StartRecord struct {
	// Instance is the claimed consensus-instance ID.
	Instance uint64
	// Alg names the algorithm the claiming service launches the
	// instance with ("" when unrecorded — every record written before
	// the adaptive control plane existed, and block claims of services
	// whose factory declines to identify itself). The tag is what lets
	// check.Replay audit algorithm choices exactly across restarts: an
	// instance must never be claimed under two different algorithms.
	Alg string
	// Group is the consensus group claiming the instance (0 for
	// single-group deployments and every record written before groups
	// existed).
	Group uint64
}

// AppendStartRecord appends the encoding of r to dst and returns the
// extended slice. The layout is the start marker, the uvarint instance,
// a uvarint-length-prefixed algorithm tag, and a trailing uvarint group
// appended only when Group > 0 — group-0 records stay byte-identical to
// the pre-group layout. Records written before the tag existed simply
// end after the instance, and DecodeStartRecord reads them as Alg == ""
// and Group == 0.
func AppendStartRecord(dst []byte, r StartRecord) ([]byte, error) {
	if len(r.Alg) > MaxAlgNameLen {
		return nil, fmt.Errorf("%w: algorithm tag of %d bytes", ErrFrameTooLarge, len(r.Alg))
	}
	dst = append(dst, startMarker)
	dst = binary.AppendUvarint(dst, r.Instance)
	dst = binary.AppendUvarint(dst, uint64(len(r.Alg)))
	dst = append(dst, r.Alg...)
	if r.Group > 0 {
		dst = binary.AppendUvarint(dst, r.Group)
	}
	return dst, nil
}

// DecodeStartRecord decodes one start record from b, returning it and
// the number of bytes consumed. A record ending right after its
// instance — the pre-tag layout — decodes with an empty Alg.
func DecodeStartRecord(b []byte) (StartRecord, int, error) {
	c := openRecord(b, KindStart)
	r := StartRecord{Instance: c.uvarint("instance")}
	if c.more() {
		r.Alg = c.str("algorithm", MaxAlgNameLen)
	}
	if c.more() {
		r.Group = c.uvarint("group")
	}
	if c.err != nil {
		return StartRecord{}, 0, c.err
	}
	return r, c.off, nil
}

// MaxClusterIDLen bounds the cluster ID a hello frame may carry.
const MaxClusterIDLen = 256

// HelloRecord is the connection handshake of the multi-process TCP
// transport, exchanged in both directions: the dialing endpoint sends
// it as the first frame of every connection, the accepting endpoint
// refuses the connection unless the cluster ID matches its own and the
// sender ID is a valid peer, and an accepted connection is answered
// with the acceptor's own hello — the ack the dialer requires before
// treating the connection as live.
type HelloRecord struct {
	// Cluster names the consensus cluster the sender believes it is
	// joining; it guards against cross-cluster misconfiguration.
	Cluster string
	// Sender is the process ID the connection's frames are sent as.
	Sender model.ProcessID
}

// AppendHelloRecord appends the encoding of r to dst and returns the
// extended slice. The layout is the hello marker, a uvarint-length-
// prefixed cluster ID, and the varint sender.
func AppendHelloRecord(dst []byte, r HelloRecord) ([]byte, error) {
	if len(r.Cluster) > MaxClusterIDLen {
		return nil, fmt.Errorf("%w: cluster id of %d bytes", ErrFrameTooLarge, len(r.Cluster))
	}
	dst = append(dst, helloMarker)
	dst = binary.AppendUvarint(dst, uint64(len(r.Cluster)))
	dst = append(dst, r.Cluster...)
	return binary.AppendVarint(dst, int64(r.Sender)), nil
}

// DecodeHelloRecord decodes one hello record from b, returning it and
// the number of bytes consumed.
func DecodeHelloRecord(b []byte) (HelloRecord, int, error) {
	c := openRecord(b, KindHello)
	cluster := c.str("cluster id", MaxClusterIDLen)
	sender := c.varint("sender")
	if sender < 1 || sender > model.MaxProcesses {
		c.reject("sender", sender)
	}
	if c.err != nil {
		return HelloRecord{}, 0, c.err
	}
	return HelloRecord{Cluster: cluster, Sender: model.ProcessID(sender)}, c.off, nil
}

// EncodePayload appends the tag-prefixed encoding of a payload (possibly
// nil) to dst.
func EncodePayload(dst []byte, p model.Payload) ([]byte, error) {
	return appendPayload(dst, p)
}

// DecodePayload decodes one tag-prefixed payload from b, returning it and
// the number of bytes consumed.
func DecodePayload(b []byte) (model.Payload, int, error) {
	return decodePayload(b)
}

// EncodeMessage appends the encoding of m to dst and returns the extended
// slice.
func EncodeMessage(dst []byte, m model.Message) ([]byte, error) {
	dst = binary.AppendVarint(dst, int64(m.From))
	dst = binary.AppendVarint(dst, int64(m.Round))
	return appendPayload(dst, m.Payload)
}

// DecodeMessage decodes one message from b, returning it and the number of
// bytes consumed.
func DecodeMessage(b []byte) (model.Message, int, error) {
	m, rest, err := SplitMessage(b)
	if err != nil {
		return model.Message{}, 0, err
	}
	pl, n, err := decodePayload(rest)
	if err != nil {
		return model.Message{}, 0, err
	}
	m.Payload = pl
	return m, len(b) - len(rest) + n, nil
}

// SplitMessage decodes the sender and round of one message from b and
// returns them, with a nil Payload, beside the payload's undecoded bytes:
// the rest of b, which DecodePayload reads. Payload decoding is a pure
// function of those bytes, so a receiver may reuse the payload it decoded
// from equal bytes before.
func SplitMessage(b []byte) (model.Message, []byte, error) {
	from, n := binary.Varint(b)
	if n <= 0 {
		return model.Message{}, nil, fmt.Errorf("%w: sender", ErrTruncated)
	}
	round, rn := binary.Varint(b[n:])
	if rn <= 0 {
		return model.Message{}, nil, fmt.Errorf("%w: round", ErrTruncated)
	}
	return model.Message{From: model.ProcessID(from), Round: model.Round(round)}, b[n+rn:], nil
}

func appendOptValue(dst []byte, o model.OptValue) []byte {
	v, ok := o.Get()
	if !ok {
		return append(dst, 0)
	}
	dst = append(dst, 1)
	return binary.AppendVarint(dst, int64(v))
}

func decodeOptValue(b []byte) (model.OptValue, int, error) {
	if len(b) < 1 {
		return model.OptValue{}, 0, fmt.Errorf("%w: optvalue flag", ErrTruncated)
	}
	if b[0] == 0 {
		return model.Bottom(), 1, nil
	}
	v, n := binary.Varint(b[1:])
	if n <= 0 {
		return model.OptValue{}, 0, fmt.Errorf("%w: optvalue", ErrTruncated)
	}
	return model.Some(model.Value(v)), 1 + n, nil
}

func appendPayload(dst []byte, p model.Payload) ([]byte, error) {
	switch pl := p.(type) {
	case nil:
		return append(dst, tagNil), nil
	case payload.Values:
		dst = append(dst, tagValues)
		dst = binary.AppendUvarint(dst, uint64(len(pl.Vals)))
		for _, v := range pl.Vals {
			dst = binary.AppendVarint(dst, int64(v))
		}
		return dst, nil
	case payload.EstHalt:
		dst = append(dst, tagEstHalt)
		dst = binary.AppendVarint(dst, int64(pl.Est))
		return binary.AppendUvarint(dst, uint64(pl.Halt)), nil
	case payload.NewEstimate:
		return appendOptValue(append(dst, tagNewEstimate), pl.NE), nil
	case payload.Decide:
		return binary.AppendVarint(append(dst, tagDecide), int64(pl.V)), nil
	case payload.Estimate:
		dst = append(dst, tagEstimate)
		dst = binary.AppendVarint(dst, int64(pl.Est))
		return binary.AppendVarint(dst, int64(pl.TS)), nil
	case payload.Propose:
		return binary.AppendVarint(append(dst, tagPropose), int64(pl.V)), nil
	case payload.Ack:
		return appendOptValue(append(dst, tagAck), pl.Val), nil
	case payload.AckEst:
		dst = append(dst, tagAckEst)
		dst = binary.AppendVarint(dst, int64(pl.Est))
		dst = binary.AppendVarint(dst, int64(pl.TS))
		return appendOptValue(dst, pl.Ack), nil
	case payload.Adopt:
		return binary.AppendVarint(append(dst, tagAdopt), int64(pl.Est)), nil
	case payload.Wrap:
		return appendPayload(append(dst, tagWrap), pl.Inner)
	default:
		return nil, fmt.Errorf("%w: %T", ErrUnknownPayload, p)
	}
}

func decodePayload(b []byte) (model.Payload, int, error) {
	if len(b) < 1 {
		return nil, 0, fmt.Errorf("%w: payload tag", ErrTruncated)
	}
	tag := b[0]
	b = b[1:]
	switch tag {
	case tagNil:
		return nil, 1, nil
	case tagValues:
		count, n := binary.Uvarint(b)
		if n <= 0 || count > MaxFrameSize {
			return nil, 0, fmt.Errorf("%w: values count", ErrTruncated)
		}
		off := n
		vals := make([]model.Value, 0, count)
		for i := uint64(0); i < count; i++ {
			v, vn := binary.Varint(b[off:])
			if vn <= 0 {
				return nil, 0, fmt.Errorf("%w: values[%d]", ErrTruncated, i)
			}
			off += vn
			vals = append(vals, model.Value(v))
		}
		return payload.Values{Vals: vals}, 1 + off, nil
	case tagEstHalt:
		est, n := binary.Varint(b)
		if n <= 0 {
			return nil, 0, fmt.Errorf("%w: esthalt est", ErrTruncated)
		}
		halt, hn := binary.Uvarint(b[n:])
		if hn <= 0 {
			return nil, 0, fmt.Errorf("%w: esthalt halt", ErrTruncated)
		}
		return payload.EstHalt{Est: model.Value(est), Halt: model.PIDSet(halt)}, 1 + n + hn, nil
	case tagNewEstimate:
		o, n, err := decodeOptValue(b)
		if err != nil {
			return nil, 0, err
		}
		return payload.NewEstimate{NE: o}, 1 + n, nil
	case tagDecide:
		v, n := binary.Varint(b)
		if n <= 0 {
			return nil, 0, fmt.Errorf("%w: decide", ErrTruncated)
		}
		return payload.Decide{V: model.Value(v)}, 1 + n, nil
	case tagEstimate:
		est, n := binary.Varint(b)
		if n <= 0 {
			return nil, 0, fmt.Errorf("%w: estimate est", ErrTruncated)
		}
		ts, tn := binary.Varint(b[n:])
		if tn <= 0 {
			return nil, 0, fmt.Errorf("%w: estimate ts", ErrTruncated)
		}
		return payload.Estimate{Est: model.Value(est), TS: int(ts)}, 1 + n + tn, nil
	case tagPropose:
		v, n := binary.Varint(b)
		if n <= 0 {
			return nil, 0, fmt.Errorf("%w: propose", ErrTruncated)
		}
		return payload.Propose{V: model.Value(v)}, 1 + n, nil
	case tagAck:
		o, n, err := decodeOptValue(b)
		if err != nil {
			return nil, 0, err
		}
		return payload.Ack{Val: o}, 1 + n, nil
	case tagAckEst:
		est, n := binary.Varint(b)
		if n <= 0 {
			return nil, 0, fmt.Errorf("%w: ackest est", ErrTruncated)
		}
		ts, tn := binary.Varint(b[n:])
		if tn <= 0 {
			return nil, 0, fmt.Errorf("%w: ackest ts", ErrTruncated)
		}
		o, on, err := decodeOptValue(b[n+tn:])
		if err != nil {
			return nil, 0, err
		}
		return payload.AckEst{Est: model.Value(est), TS: int(ts), Ack: o}, 1 + n + tn + on, nil
	case tagAdopt:
		v, n := binary.Varint(b)
		if n <= 0 {
			return nil, 0, fmt.Errorf("%w: adopt", ErrTruncated)
		}
		return payload.Adopt{Est: model.Value(v)}, 1 + n, nil
	case tagWrap:
		inner, n, err := decodePayload(b)
		if err != nil {
			return nil, 0, err
		}
		return payload.Wrap{Inner: inner}, 1 + n, nil
	default:
		return nil, 0, fmt.Errorf("%w: tag %d", ErrUnknownPayload, tag)
	}
}
