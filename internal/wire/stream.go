package wire

import (
	"encoding/binary"
	"fmt"
	"io"
)

// frameHeader is the stream layout's length prefix: a frame is a
// 4-byte big-endian length followed by that many bytes.
const frameHeader = 4

// frameChunk is the size of a FrameReader's chunk. Frames handed out
// pin their chunk, so a chunk stays small: 4 KiB holds over a hundred
// round frames of a small cluster.
const frameChunk = 4 << 10

// AppendFrame appends b to dst as a length-prefixed frame, the stream
// layout FrameReader reads, so writers can coalesce many frames into
// one buffer and one Write.
func AppendFrame(dst, b []byte) ([]byte, error) {
	if len(b) > MaxFrameSize {
		return nil, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, len(b))
	}
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(b)))
	return append(dst, b...), nil
}

// FrameReader reads length-prefixed frames from a stream into chunks
// it owns. Each Read takes whatever the stream holds into the current
// chunk's spare capacity, and each frame comes back as a
// capacity-limited slice of the chunk, so reading many small frames
// costs a fraction of a Read and no allocation per frame.
//
// A frame, once returned, is never written again: the reader only
// writes past every frame it has handed out, and starts a new chunk —
// copying over the partial frame it has read ahead — when the next
// frame does not fit in the rest of the current one. A frame larger
// than a chunk gets a buffer of its own. The frames of one reader may
// therefore share a backing array, and are read-only to the caller.
//
// A FrameReader is not safe for concurrent use.
type FrameReader struct {
	r io.Reader
	// buf is the current chunk: buf[:off] is handed out, buf[off:] is
	// read ahead, and buf[len(buf):cap(buf)] is free.
	buf []byte
	off int
	// err is the stream's first error, reported once the bytes read
	// ahead of it run out.
	err error
}

// NewFrameReader returns a reader of the frames on r. It allocates its
// first chunk at the first Next.
func NewFrameReader(r io.Reader) *FrameReader { return &FrameReader{r: r} }

// Next returns the next frame. A length above MaxFrameSize is
// ErrFrameTooLarge, reported before anything is allocated for the
// frame. A stream that ends cleanly between frames is io.EOF; one that
// ends inside a header or a body is io.ErrUnexpectedEOF, never a
// partial frame. Any other error is the stream's own.
func (fr *FrameReader) Next() ([]byte, error) {
	if err := fr.fill(frameHeader); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(fr.buf[fr.off:])
	if n > MaxFrameSize {
		return nil, fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, n)
	}
	size := int(n)
	if frameHeader+size > frameChunk {
		return fr.large(size)
	}
	if err := fr.fill(frameHeader + size); err != nil {
		return nil, err
	}
	start := fr.off + frameHeader
	fr.off = start + size
	return fr.buf[start:fr.off:fr.off], nil
}

// fill reads until want bytes (at most a chunk) lie ahead of off,
// moving the read-ahead into a new chunk first if want does not fit in
// the current one.
func (fr *FrameReader) fill(want int) error {
	for len(fr.buf)-fr.off < want {
		if fr.err != nil {
			return fr.fail(len(fr.buf) > fr.off)
		}
		if fr.off+want > cap(fr.buf) {
			chunk := make([]byte, len(fr.buf)-fr.off, frameChunk)
			copy(chunk, fr.buf[fr.off:])
			fr.buf, fr.off = chunk, 0
		}
		n, err := fr.r.Read(fr.buf[len(fr.buf):cap(fr.buf)])
		fr.buf = fr.buf[:len(fr.buf)+n]
		fr.err = err
	}
	return nil
}

// large reads a frame that cannot fit in a chunk into a buffer of its
// own. Everything read ahead past its header belongs to its body (the
// read-ahead is shorter than a chunk), so the body bytes move to the
// buffer, the rest comes straight from the stream, and the chunk's
// space from off on is free again.
func (fr *FrameReader) large(size int) ([]byte, error) {
	frame := make([]byte, size)
	got := copy(frame, fr.buf[fr.off+frameHeader:])
	fr.buf = fr.buf[:fr.off]
	if fr.err != nil {
		return nil, fr.fail(true)
	}
	if _, err := io.ReadFull(fr.r, frame[got:]); err != nil {
		fr.err = err
		return nil, fr.fail(true)
	}
	return frame, nil
}

// fail reports the stream's error, as io.ErrUnexpectedEOF when the
// stream ended inside a frame.
func (fr *FrameReader) fail(inFrame bool) error {
	if inFrame && fr.err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return fr.err
}
