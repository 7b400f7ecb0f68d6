package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Marker bytes: the first byte of every envelope and record kind. A
// version-0 frame opens with the zigzag varint of a sender in [1,
// model.MaxProcesses] — an even byte, or a continuation byte with the
// high bit set — so an odd byte below 0x80 can never open one, and
// distinct markers keep every kind decidable from the first byte alone
// (indulgence-vet's wiremarker rule recomputes both facts on every run).
const (
	instanceMarker      byte = 0x01 // version-1 envelope: instance ID, bare message
	recordMarker        byte = 0x03 // DecisionRecord
	startMarker         byte = 0x05 // StartRecord
	helloMarker         byte = 0x07 // HelloRecord
	groupMarker         byte = 0x09 // version-2 envelope (read, no longer written): group ID, instance ID, bare message
	traceHeaderMarker   byte = 0x0B // TraceHeaderRecord
	traceEventMarker    byte = 0x0D // TraceEventRecord
	traceOutcomeMarker  byte = 0x0F // TraceOutcomeRecord
	decisionTraceMarker byte = 0x11 // DecisionTraceRecord
)

// Kind names a record kind by its marker byte.
type Kind byte

// The record kinds. KindNone is every payload that opens with no record
// marker: empty input, a bare message, an instance or group envelope.
const (
	KindNone          Kind = 0
	KindDecision           = Kind(recordMarker)
	KindStart              = Kind(startMarker)
	KindHello              = Kind(helloMarker)
	KindTraceHeader        = Kind(traceHeaderMarker)
	KindTraceEvent         = Kind(traceEventMarker)
	KindTraceOutcome       = Kind(traceOutcomeMarker)
	KindDecisionTrace      = Kind(decisionTraceMarker)
)

// kindNames names each record kind as decode errors do; a byte with no
// name is not a record marker.
var kindNames = [256]string{
	KindDecision:      "decision record",
	KindStart:         "start record",
	KindHello:         "hello",
	KindTraceHeader:   "trace header",
	KindTraceEvent:    "trace event",
	KindTraceOutcome:  "trace outcome",
	KindDecisionTrace: "decision trace",
}

// KindOf reports which record kind b opens with, from its first byte
// alone, so a reader of mixed records runs exactly one decoder per
// payload.
func KindOf(b []byte) Kind {
	if len(b) == 0 || kindNames[b[0]] == "" {
		return KindNone
	}
	return Kind(b[0])
}

// String names a record kind ("" for anything else).
func (k Kind) String() string { return kindNames[k] }

// cursor reads one record's fields in wire order. The first failure
// sticks in err — running out of bytes as ErrTruncated, an out-of-range
// value as ErrUnknownPayload, both naming the kind and the field — and
// every later read returns zero, so a decoder reads all its fields
// unconditionally and checks err once. A decoder must read fields in
// the order the encoder wrote them (Go evaluates the calls in a struct
// literal left to right).
type cursor struct {
	b    []byte
	off  int
	kind Kind
	err  error
}

// openRecord starts decoding b as one record of kind k, consuming the
// marker byte.
func openRecord(b []byte, k Kind) cursor {
	c := cursor{b: b, off: 1, kind: k}
	if len(b) == 0 {
		c.truncated("marker")
	} else if b[0] != byte(k) {
		c.reject("marker", b[0])
	}
	return c
}

// truncated fails the decode inside field; callers hold err == nil.
func (c *cursor) truncated(field string) {
	c.err = fmt.Errorf("%w: %s %s", ErrTruncated, c.kind, field)
}

// reject fails the decode over a well-formed but out-of-range value.
func (c *cursor) reject(field string, v any) {
	if c.err == nil {
		c.err = fmt.Errorf("%w: %s %s %v", ErrUnknownPayload, c.kind, field, v)
	}
}

// more reports whether bytes remain — how a decoder asks for an
// optional trailing field.
func (c *cursor) more() bool { return c.err == nil && c.off < len(c.b) }

func (c *cursor) uvarint(field string) uint64 {
	if c.err != nil {
		return 0
	}
	v, n := binary.Uvarint(c.b[c.off:])
	if n <= 0 {
		c.truncated(field)
		return 0
	}
	c.off += n
	return v
}

// varint reads a zigzag-encoded signed value, as binary.Varint does.
func (c *cursor) varint(field string) int64 {
	u := c.uvarint(field)
	return int64(u>>1) ^ -int64(u&1)
}

// bounded is uvarint rejecting values above max; like every failed read
// it then returns zero, so a rejected count bounds no loop.
func (c *cursor) bounded(field string, max uint64) uint64 {
	v := c.uvarint(field)
	if v > max {
		c.reject(field, v)
		return 0
	}
	return v
}

func (c *cursor) byte(field string) byte {
	if c.err == nil && c.off >= len(c.b) {
		c.truncated(field)
	}
	if c.err != nil {
		return 0
	}
	c.off++
	return c.b[c.off-1]
}

// str reads a uvarint-length-prefixed string of at most max bytes.
func (c *cursor) str(field string, max int) string {
	n := c.bounded(field, uint64(max))
	if c.err == nil && uint64(len(c.b)-c.off) < n {
		c.truncated(field)
	}
	if c.err != nil {
		return ""
	}
	c.off += int(n)
	return string(c.b[c.off-int(n) : c.off])
}

// CRCFrameHeader is the per-frame overhead of a CRC frame: a 4-byte
// big-endian payload length, then a 4-byte big-endian CRC-32C of the
// payload.
const CRCFrameHeader = 8

// castagnoli is the CRC-32C table (the polynomial used by modern storage
// formats, hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// CRC frame read errors.
var (
	// ErrShortFrame reports a CRC frame whose header or payload runs
	// past the input.
	ErrShortFrame = errors.New("wire: short CRC frame")
	// ErrChecksum reports a complete CRC frame whose payload does not
	// match its checksum.
	ErrChecksum = errors.New("wire: CRC frame checksum mismatch")
)

// AppendCRCFrame appends one CRC frame to dst: it reserves the header,
// has encode append the payload in place, and backfills the length and
// checksum.
func AppendCRCFrame(dst []byte, encode func(dst []byte) ([]byte, error)) ([]byte, error) {
	start := len(dst) + CRCFrameHeader
	dst, err := encode(append(dst, make([]byte, CRCFrameHeader)...))
	if err != nil {
		return nil, err
	}
	payload := dst[start:]
	if len(payload) > MaxFrameSize {
		return nil, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, len(payload))
	}
	binary.BigEndian.PutUint32(dst[start-CRCFrameHeader:], uint32(len(payload)))
	binary.BigEndian.PutUint32(dst[start-4:], crc32.Checksum(payload, castagnoli))
	return dst, nil
}

// ReadCRCFrame splits the CRC frame b opens with into its payload and
// total length n. It fails with ErrShortFrame when b ends inside the
// frame, ErrFrameTooLarge when the length field exceeds MaxFrameSize,
// and ErrChecksum — with n still the frame's length, so a caller can
// tell whether the bad frame was b's last — when the payload does not
// match its checksum. What each failure means is the caller's policy.
func ReadCRCFrame(b []byte) (payload []byte, n int, err error) {
	if len(b) < CRCFrameHeader {
		return nil, 0, ErrShortFrame
	}
	size := binary.BigEndian.Uint32(b)
	if size > MaxFrameSize {
		return nil, 0, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, size)
	}
	n = CRCFrameHeader + int(size)
	if len(b) < n {
		return nil, 0, ErrShortFrame
	}
	payload = b[CRCFrameHeader:n]
	if crc32.Checksum(payload, castagnoli) != binary.BigEndian.Uint32(b[4:]) {
		return nil, n, ErrChecksum
	}
	return payload, n, nil
}
