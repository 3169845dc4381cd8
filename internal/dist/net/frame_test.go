package distnet

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"testing"

	"repro/internal/mat"
)

// AppendFrame appends f as WriteFrame writes it to dst.
func AppendFrame(dst []byte, f Frame) []byte {
	var b bytes.Buffer
	WriteFrame(&b, f)
	return append(dst, b.Bytes()...)
}

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
		// A version-2 build's frame, CRC intact: its start frames carry a
		// kernel-family byte this build would misread.
		{"version 2", corrupt(func(b []byte) {
			b[4] = 2
			binary.LittleEndian.PutUint32(b[len(b)-trailerLen:], crc32.ChecksumIEEE(b[4:len(b)-trailerLen]))
		}), ErrBadVersion},
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
// consumed (decode∘encode fixed point). The pooled stream reader must give
// the same frame or error.
func FuzzFrameDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add(AppendFrame(nil, Frame{Type: ftJoin, Seq: 1, Payload: []byte("seed")}))
	f.Add(AppendFrame(nil, Frame{Type: ftTreeUp, Seq: 1 << 41, Payload: nil}))
	trunc := AppendFrame(nil, Frame{Type: ftBlob, Seq: 3, Payload: bytes.Repeat([]byte{7}, 64)})
	f.Add(trunc[:len(trunc)-9])
	f.Fuzz(func(t *testing.T, b []byte) {
		fr, n, err := DecodeFrame(b)
		rf, rerr := ReadFrame(bytes.NewReader(b))
		if len(b) == 0 && rerr == io.EOF {
			rerr = ErrShortFrame // a clean end of stream, where a buffer is short
		}
		if fmt.Sprint(rerr) != fmt.Sprint(err) || rf.Type != fr.Type || rf.Seq != fr.Seq || !bytes.Equal(rf.Payload, fr.Payload) {
			t.Fatalf("ReadFrame = %+v, %v; DecodeFrame = %+v, %v", rf, rerr, fr, err)
		}
		rf.release()
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
		for _, codec := range controlCodecs {
			codec(fr.Payload)
		}
		if _, segs, err := decodeUp(fr.Payload); err == nil {
			for _, s := range segs {
				s.free()
			}
		}
		decodeDown(fr.Payload)
		decodeMat(fr.Payload)
	})
}

// controlCodecs re-encodes what each control frame type's payload decodes
// to.
var controlCodecs = map[byte]func([]byte) ([]byte, error){
	ftJoin:      reencode[joinMsg],
	ftJoinAck:   reencode[joinAckMsg],
	ftReject:    reencode[rejectMsg],
	ftStart:     reencode[startMsg],
	ftPeerDead:  reencode[peerDeadMsg],
	ftTreeHello: reencode[treeHelloMsg],
}

func reencode[T any, P message[T]](p []byte) ([]byte, error) {
	m, err := decode[T, P](p)
	return encode(P(&m)), err
}

// FuzzControlDecode: for every control frame type, a payload either fails
// to decode or decodes to a message whose field list re-encodes to exactly
// that payload.
func FuzzControlDecode(f *testing.F) {
	for typ, m := range map[byte]interface{ fields() mat.Fields }{
		ftJoin: &goldenJoin, ftJoinAck: &goldenJoinAck, ftReject: &goldenReject,
		ftStart: &goldenStart, ftPeerDead: &goldenPeerDead, ftTreeHello: &goldenHello,
	} {
		b := encode(m)
		f.Add(typ, b)
		f.Add(typ, b[:len(b)-1])
	}
	f.Fuzz(func(t *testing.T, typ byte, p []byte) {
		codec := controlCodecs[typ]
		if codec == nil {
			return
		}
		re, err := codec(p)
		if err == nil && !bytes.Equal(re, p) {
			t.Fatalf("frame type %d: %x decodes and re-encodes to %x", typ, p, re)
		}
	})
}

// TestFrameIOAllocs pins the frame path's allocations: ReadFrame reads
// header, payload and trailer into one pooled buffer (the payload it
// returns; a released frame's comes back) and allocates only the count of
// its holders, and a warmed WriteFrame writes the payload where it lies.
func TestFrameIOAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool puts by design; allocation counts are not meaningful")
	}
	f := Frame{Type: ftTreeDown, Seq: 7, Payload: bytes.Repeat([]byte{0x5A}, 64<<10)}
	wire := AppendFrame(nil, f)
	r := bytes.NewReader(wire)
	read := testing.AllocsPerRun(50, func() {
		r.Reset(wire)
		f, err := ReadFrame(r)
		if err != nil {
			t.Fatal(err)
		}
		f.release()
	})
	if read != 1 {
		t.Errorf("ReadFrame of a 64 KiB payload: %v allocations, want 1", read)
	}
	write := testing.AllocsPerRun(50, func() {
		if err := WriteFrame(io.Discard, f); err != nil {
			t.Fatal(err)
		}
	})
	if write != 0 {
		t.Errorf("WriteFrame to io.Discard: %v allocations, want 0", write)
	}
}
