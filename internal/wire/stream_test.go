package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"runtime"
	"testing"
	"testing/iotest"
)

// patternReader hands out data in reads whose sizes cycle through
// sizes (a read takes everything when sizes is empty), then io.EOF on
// every later read.
type patternReader struct {
	data  []byte
	sizes []int
	next  int
}

func (r *patternReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, io.EOF
	}
	n := min(len(p), len(r.data))
	if len(r.sizes) > 0 {
		n = min(n, r.sizes[r.next%len(r.sizes)])
		r.next++
	}
	copy(p, r.data[:n])
	r.data = r.data[n:]
	return n, nil
}

// frameBody is frame i of a test stream, size bytes long: its bytes
// depend on i, so a frame read out of order or overwritten shows.
func frameBody(i, size int) []byte {
	b := make([]byte, size)
	for j := range b {
		b[j] = byte(i*31 + j*7 + 1)
	}
	return b
}

// frameStream returns the stream of the given frames.
func frameStream(t testing.TB, frames [][]byte) []byte {
	t.Helper()
	var stream []byte
	for _, f := range frames {
		var err error
		if stream, err = AppendFrame(stream, f); err != nil {
			t.Fatal(err)
		}
	}
	return stream
}

// readAll reads frames until the reader fails, returning the frames
// and the error.
func readAll(fr *FrameReader) ([][]byte, error) {
	var got [][]byte
	for {
		f, err := fr.Next()
		if err != nil {
			return got, err
		}
		got = append(got, f)
	}
}

// checkFrames fails unless got equals want frame for frame.
func checkFrames(t *testing.T, got, want [][]byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("read %d frames, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("frame %d: %d bytes % .16x…, want %d bytes % .16x…", i, len(got[i]), got[i], len(want[i]), want[i])
		}
	}
}

// TestAppendFrameMatchesWriteFrame pins AppendFrame to the stream
// layout as a stream writer produces it piecewise: each frame's 4-byte
// big-endian length written, then its bytes. Frames appended after
// bytes already in the buffer leave those bytes in place, so a caller
// can coalesce a header and many frames into one Write.
func TestAppendFrameMatchesWriteFrame(t *testing.T) {
	var streamed bytes.Buffer
	appended := []byte("prefix")
	streamed.WriteString("prefix")
	for _, payload := range [][]byte{{}, {1}, []byte("frame two"), make([]byte, 300)} {
		if err := binary.Write(&streamed, binary.BigEndian, uint32(len(payload))); err != nil {
			t.Fatal(err)
		}
		streamed.Write(payload)
		var err error
		if appended, err = AppendFrame(appended, payload); err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(streamed.Bytes(), appended) {
		t.Fatal("AppendFrame diverges from the 4-byte big-endian length prefix layout")
	}
}

// TestFrames round-trips frames through AppendFrame and FrameReader and
// pins the stream layout: a 4-byte big-endian length, then the bytes.
// The sizes take in the empty frame, one that fills a chunk exactly and
// one a byte too large for a chunk.
func TestFrames(t *testing.T) {
	var want [][]byte
	for i, size := range []int{0, 1, 12, 300, frameChunk - frameHeader, frameChunk - frameHeader + 1, 5} {
		want = append(want, frameBody(i, size))
	}
	stream := frameStream(t, want)
	var layout []byte
	for _, f := range want {
		layout = binary.BigEndian.AppendUint32(layout, uint32(len(f)))
		layout = append(layout, f...)
	}
	if !bytes.Equal(stream, layout) {
		t.Fatal("AppendFrame diverges from the 4-byte big-endian length prefix layout")
	}
	got, err := readAll(NewFrameReader(bytes.NewReader(stream)))
	if err != io.EOF {
		t.Fatalf("stream end: %v, want io.EOF", err)
	}
	checkFrames(t, got, want)
	for i, f := range got {
		if cap(f) != len(f) {
			t.Fatalf("frame %d has %d spare bytes a caller could append into", i, cap(f)-len(f))
		}
	}
}

// TestFrameTooLarge checks both ends of the size limit: AppendFrame
// refuses an oversized frame, and a forged oversized header fails with
// ErrFrameTooLarge before anything is allocated for the frame.
func TestFrameTooLarge(t *testing.T) {
	if _, err := AppendFrame(nil, make([]byte, MaxFrameSize+1)); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("oversized frame appended: %v", err)
	}
	for _, hdr := range [][]byte{{0xFF, 0xFF, 0xFF, 0xFF}, binary.BigEndian.AppendUint32(nil, MaxFrameSize+1)} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := NewFrameReader(bytes.NewReader(hdr)).Next()
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrFrameTooLarge) {
			t.Fatalf("header % x: %v, want ErrFrameTooLarge", hdr, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 4*frameChunk {
			t.Fatalf("header % x: %d bytes allocated before the length check", hdr, grew)
		}
	}
}

// mixedFrames returns count frames whose sizes cycle through small
// frames, frames near a chunk's size and, every 97th, one larger than a
// chunk, so frames straddle chunk boundaries at many offsets.
func mixedFrames(count int) [][]byte {
	sizes := []int{1, 26, 0, 300, 26, 1000, frameChunk - frameHeader - 1, 26, 7}
	frames := make([][]byte, count)
	for i := range frames {
		size := sizes[i%len(sizes)]
		if i%97 == 96 {
			size = frameChunk + 1 + i
		}
		frames[i] = frameBody(i, size)
	}
	return frames
}

// TestFrameReaderReadSizes reads one stream through readers of many
// read sizes — one byte at a time, odd sizes that split headers and
// bodies at every offset, a whole chunk, everything at once — and
// expects the same frames from each.
func TestFrameReaderReadSizes(t *testing.T) {
	want := mixedFrames(500)
	stream := frameStream(t, want)
	readers := map[string]io.Reader{
		"one byte":   iotest.OneByteReader(bytes.NewReader(stream)),
		"half":       iotest.HalfReader(bytes.NewReader(stream)),
		"3,1,2":      &patternReader{data: stream, sizes: []int{3, 1, 2}},
		"odd":        &patternReader{data: stream, sizes: []int{5, 4093, 17, 2, 1031}},
		"chunk":      &patternReader{data: stream, sizes: []int{frameChunk}},
		"data + EOF": iotest.DataErrReader(bytes.NewReader(stream)),
		"all":        bytes.NewReader(stream),
	}
	for name, r := range readers {
		got, err := readAll(NewFrameReader(r))
		if err != io.EOF {
			t.Fatalf("%s: stream end: %v, want io.EOF", name, err)
		}
		checkFrames(t, got, want)
	}
}

// TestFrameReaderMaxFrameSize reads a frame of exactly MaxFrameSize
// between two small frames, whole and in odd-sized reads.
func TestFrameReaderMaxFrameSize(t *testing.T) {
	want := [][]byte{frameBody(0, 26), frameBody(1, MaxFrameSize), frameBody(2, 26)}
	stream := frameStream(t, want)
	for _, sizes := range [][]int{nil, {1 << 16, 3}, {frameChunk}} {
		got, err := readAll(NewFrameReader(&patternReader{data: stream, sizes: sizes}))
		if err != io.EOF {
			t.Fatalf("reads of %v: stream end: %v, want io.EOF", sizes, err)
		}
		checkFrames(t, got, want)
	}
}

// TestFrameReaderTruncated cuts a stream at every offset: the reader
// returns exactly the frames that ended before the cut, then io.EOF if
// the cut falls between frames and io.ErrUnexpectedEOF if it falls
// inside a header or a body — never a partial frame.
func TestFrameReaderTruncated(t *testing.T) {
	frames := [][]byte{frameBody(0, 26), frameBody(1, 0), frameBody(2, frameChunk+1), frameBody(3, 3)}
	stream := frameStream(t, frames)
	ends := map[int]int{0: 0} // stream offset where a frame ends -> frames before it
	off := 0
	for i, f := range frames {
		off += frameHeader + len(f)
		ends[off] = i + 1
	}
	for cut := 0; cut <= len(stream); cut++ {
		for _, sizes := range [][]int{nil, {1}, {3, 1000}} {
			got, err := readAll(NewFrameReader(&patternReader{data: stream[:cut], sizes: sizes}))
			complete, atBoundary := ends[cut]
			wantErr := io.ErrUnexpectedEOF
			if atBoundary {
				wantErr = io.EOF
			} else {
				for o, n := range ends {
					if o < cut && n > complete {
						complete = n
					}
				}
			}
			if err != wantErr {
				t.Fatalf("cut at %d, reads of %v: %v, want %v", cut, sizes, err, wantErr)
			}
			checkFrames(t, got, frames[:complete])
		}
	}
}

// TestFrameReaderFramesImmutable keeps every frame a reader returns and
// checks, after 10,000 further frames, that each still holds its
// original bytes: the reader never writes into a frame it handed out.
func TestFrameReaderFramesImmutable(t *testing.T) {
	const early, later = 200, 10_000
	want := mixedFrames(early + later)
	fr := NewFrameReader(&patternReader{data: frameStream(t, want), sizes: []int{700, 3, 4096, 1}})
	got, err := readAll(fr)
	if err != io.EOF {
		t.Fatalf("stream end: %v, want io.EOF", err)
	}
	checkFrames(t, got, want)
}

// TestFrameReaderAllocs pins the reader's cost: a thousand 26-byte
// frames share a handful of chunks instead of allocating one buffer
// each.
func TestFrameReaderAllocs(t *testing.T) {
	frames := make([][]byte, 1000)
	for i := range frames {
		frames[i] = frameBody(i, 26)
	}
	stream := frameStream(t, frames)
	var r bytes.Reader
	allocs := testing.AllocsPerRun(20, func() {
		r.Reset(stream)
		fr := NewFrameReader(&r)
		for range frames {
			if _, err := fr.Next(); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs > 10 {
		t.Fatalf("reading 1000 frames of 26 B allocates %v times, want at most 10", allocs)
	}
}
