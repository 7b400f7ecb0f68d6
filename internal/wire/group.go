package wire

import (
	"encoding/binary"
	"fmt"
)

// AppendGroupHeader appends the envelope header addressing (group,
// instance) to dst. Group 0 is the compatibility group and emits the
// pre-group layouts byte-identically: instance 0 appends nothing (a
// bare version-0 frame), any other instance appends the version-1
// instance envelope. Only group > 0 emits the version-2 group
// envelope, so a single-group deployment's frames are exactly the
// frames it sent before groups existed. StripGroup undoes exactly this
// header.
func AppendGroupHeader(dst []byte, group, instance uint64) []byte {
	if group == 0 {
		if instance == 0 {
			return dst
		}
		return AppendInstanceHeader(dst, instance)
	}
	dst = append(dst, groupMarker)
	dst = binary.AppendUvarint(dst, group)
	return binary.AppendUvarint(dst, instance)
}

// StripGroup splits a frame into its consensus-group ID, instance ID
// and bare message bytes. Frames of the earlier layouts — version-0
// bare messages and version-1 instance envelopes — decode as group 0,
// so every frame a pre-group peer can emit routes to the compatibility
// group unchanged.
func StripGroup(frame []byte) (group, instance uint64, inner []byte, err error) {
	if len(frame) == 0 {
		return 0, 0, nil, fmt.Errorf("%w: empty frame", ErrTruncated)
	}
	if frame[0] != groupMarker {
		instance, inner, err = StripInstance(frame)
		return 0, instance, inner, err
	}
	g, n := binary.Uvarint(frame[1:])
	if n <= 0 {
		return 0, 0, nil, fmt.Errorf("%w: group id", ErrTruncated)
	}
	off := 1 + n
	id, n := binary.Uvarint(frame[off:])
	if n <= 0 {
		return 0, 0, nil, fmt.Errorf("%w: group instance id", ErrTruncated)
	}
	return g, id, frame[off+n:], nil
}
