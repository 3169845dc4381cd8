package distnet

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// TestFrameRoundTrip: encode → decode is the identity for representative
// frames, including empty and large payloads.
func TestFrameRoundTrip(t *testing.T) {
	cases := []Frame{
		{Type: ftJoin, Seq: 0, Payload: nil},
		{Type: ftTreeUp, Seq: 42, Payload: []byte{1, 2, 3}},
		{Type: ftTreeDown, Seq: 1<<40 | 7, Payload: bytes.Repeat([]byte{0xAB}, 1<<16)},
		{Type: ftHeartbeat, Seq: ^uint64(0), Payload: []byte{}},
	}
	for _, f := range cases {
		buf := AppendFrame(nil, f)
		got, n, err := DecodeFrame(buf)
		if err != nil {
			t.Fatalf("DecodeFrame(%d): %v", f.Type, err)
		}
		if n != len(buf) {
			t.Fatalf("consumed %d of %d bytes", n, len(buf))
		}
		if got.Type != f.Type || got.Seq != f.Seq || !bytes.Equal(got.Payload, f.Payload) {
			t.Fatalf("round trip mismatch: got %+v want %+v", got, f)
		}
	}
}

// TestFrameStreamRoundTrip: WriteFrame/ReadFrame over a stream, several
// frames back to back, then clean EOF (not ErrShortFrame).
func TestFrameStreamRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	frames := []Frame{
		{Type: ftJoin, Seq: 1, Payload: []byte("hello")},
		{Type: ftStart, Seq: 2, Payload: nil},
		{Type: ftBlob, Seq: 3, Payload: bytes.Repeat([]byte{9}, 333)},
	}
	for _, f := range frames {
		if err := WriteFrame(&buf, f); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range frames {
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.Type != want.Type || got.Seq != want.Seq || !bytes.Equal(got.Payload, want.Payload) {
			t.Fatalf("frame %d mismatch", i)
		}
	}
	if _, err := ReadFrame(&buf); err != io.EOF {
		t.Fatalf("end of stream: got %v want io.EOF", err)
	}
}

// TestFrameDecodeRejects: every corruption class maps to its typed error
// and never panics.
func TestFrameDecodeRejects(t *testing.T) {
	good := AppendFrame(nil, Frame{Type: ftTreeUp, Seq: 5, Payload: []byte("payload")})

	corrupt := func(mut func(b []byte)) []byte {
		b := append([]byte(nil), good...)
		mut(b)
		return b
	}
	cases := []struct {
		name string
		b    []byte
		want error
	}{
		{"empty", nil, ErrShortFrame},
		{"truncated header", good[:10], ErrShortFrame},
		{"truncated payload", good[:len(good)-6], ErrShortFrame},
		{"bad magic", corrupt(func(b []byte) { b[0] ^= 0xFF }), ErrBadMagic},
		{"bad version", corrupt(func(b []byte) { b[4] = 99 }), ErrBadVersion},
		{"reserved bits", corrupt(func(b []byte) { b[6] = 1 }), ErrBadReserved},
		{"flipped payload bit", corrupt(func(b []byte) { b[headerLen] ^= 0x01 }), ErrBadCRC},
		{"flipped crc", corrupt(func(b []byte) { b[len(b)-1] ^= 0x80 }), ErrBadCRC},
		{"oversized length", corrupt(func(b []byte) {
			b[16], b[17], b[18], b[19] = 0xFF, 0xFF, 0xFF, 0x7F
		}), ErrFrameTooLarge},
	}
	for _, tc := range cases {
		if _, _, err := DecodeFrame(tc.b); !errors.Is(err, tc.want) {
			t.Errorf("%s: got %v want %v", tc.name, err, tc.want)
		}
	}
}

// TestReadFrameTruncation: a mid-frame cut surfaces as ErrShortFrame so
// connection teardown is distinguishable from a clean close.
func TestReadFrameTruncation(t *testing.T) {
	full := AppendFrame(nil, Frame{Type: ftTreeDown, Seq: 9, Payload: []byte("abcdef")})
	for _, cut := range []int{1, headerLen - 1, headerLen, len(full) - 1} {
		_, err := ReadFrame(bytes.NewReader(full[:cut]))
		if !errors.Is(err, ErrShortFrame) {
			t.Errorf("cut at %d: got %v want ErrShortFrame", cut, err)
		}
	}
}

// FuzzFrameDecode: the decoder must never panic, never allocate beyond the
// frame bound, and anything it accepts must re-encode to the bytes it
// consumed (decode∘encode fixed point).
func FuzzFrameDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendFrame(nil, Frame{Type: ftJoin, Seq: 1, Payload: []byte("seed")}))
	f.Add(AppendFrame(nil, Frame{Type: ftTreeUp, Seq: 1 << 41, Payload: nil}))
	trunc := AppendFrame(nil, Frame{Type: ftBlob, Seq: 3, Payload: bytes.Repeat([]byte{7}, 64)})
	f.Add(trunc[:len(trunc)-9])
	f.Fuzz(func(t *testing.T, b []byte) {
		fr, n, err := DecodeFrame(b)
		if err != nil {
			return
		}
		if n <= 0 || n > len(b) {
			t.Fatalf("consumed %d of %d bytes", n, len(b))
		}
		re := AppendFrame(nil, fr)
		if !bytes.Equal(re, b[:n]) {
			t.Fatalf("decode/encode not a fixed point")
		}
		// Message decoders over arbitrary accepted payloads must not panic
		// either (they can error, that's fine).
		decodeJoin(fr.Payload)
		decodeStart(fr.Payload)
		if _, segs, err := decodeUp(fr.Payload); err == nil {
			for _, s := range segs {
				s.free()
			}
		}
		decodeDown(fr.Payload)
		decodePeerDead(fr.Payload)
		decodeReject(fr.Payload)
		decodeMat(fr.Payload)
	})
}
