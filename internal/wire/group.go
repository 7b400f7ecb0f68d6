package wire

import (
	"encoding/binary"
	"fmt"
)

// StripGroup splits a frame into its consensus-group ID, instance ID
// and bare message bytes. Nothing writes the version-2 group envelope
// any more — an instance ID names its group — so every frame a current
// peer sends, a version-0 bare message or a version-1 instance envelope,
// decodes as group 0; a version-2 frame still decodes, and the mux
// ignores its group field.
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
