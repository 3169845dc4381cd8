package distnet

import (
	"bytes"
	"testing"
	"time"
)

// TestParseSocketFaultSpec: the -net-fault grammar, accepts and rejects.
func TestParseSocketFaultSpec(t *testing.T) {
	t.Run("empty disables", func(t *testing.T) {
		plan, err := ParseSocketFaultSpec("")
		if err != nil || plan != nil {
			t.Fatalf("got (%v, %v), want (nil, nil)", plan, err)
		}
	})
	t.Run("full grammar", func(t *testing.T) {
		plan, err := ParseSocketFaultSpec("drop:0.1,dup:0.05,reorder:0.2,delay:0.3@5ms,partition:2s@500ms")
		if err != nil {
			t.Fatal(err)
		}
		if plan.DropProb != 0.1 || plan.DupProb != 0.05 || plan.ReorderProb != 0.2 {
			t.Fatalf("probs wrong: %+v", plan)
		}
		if plan.DelayProb != 0.3 || plan.Delay != 5*time.Millisecond {
			t.Fatalf("delay wrong: %+v", plan)
		}
		if plan.PartitionAfter != 2*time.Second || plan.PartitionFor != 500*time.Millisecond {
			t.Fatalf("partition wrong: %+v", plan)
		}
		if !plan.Enabled() {
			t.Fatal("plan should be enabled")
		}
	})
	for _, bad := range []string{
		"drop", "drop:", "drop:0", "drop:1.5", "drop:x",
		"dup:-0.1", "reorder:2", "delay:0.5", "delay:0.5@", "delay:0.5@-1s",
		"partition:1s", "partition:-1s@1s", "partition:1s@0s",
		"flip:0.5", "drop:0.1,,", ":0.5",
	} {
		if _, err := ParseSocketFaultSpec(bad); err == nil {
			t.Errorf("spec %q: expected error", bad)
		}
	}
}

// collect is a frame sink recording what actually reached the "wire".
type collect struct{ frames []Frame }

func (c *collect) Write(p []byte) (int, error) {
	b := append([]byte(nil), p...)
	for len(b) > 0 {
		f, n, err := DecodeFrame(b)
		if err != nil {
			return 0, err
		}
		c.frames = append(c.frames, f)
		b = b[n:]
	}
	return len(p), nil
}

// TestFaultWriterDeterministic: the same plan and endpoint produce the
// identical fault sequence on every run — the property the parity-under-
// chaos tests rely on.
func TestFaultWriterDeterministic(t *testing.T) {
	run := func() []uint64 {
		sink := &collect{}
		fw := newFaultWriter(sink, SocketFaultPlan{Seed: 7, DropProb: 0.3, DupProb: 0.2, ReorderProb: 0.2}, 3)
		for i := 0; i < 200; i++ {
			fw.writeFrame(Frame{Type: ftTreeUp, Seq: uint64(i)})
		}
		var seqs []uint64
		for _, f := range sink.frames {
			seqs = append(seqs, f.Seq)
		}
		return seqs
	}
	a, b := run(), run()
	if len(a) == 0 || len(a) == 200 {
		t.Fatalf("plan injected nothing (or everything): %d of 200 delivered", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("run divergence at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

// TestFaultWriterDrop: a pure-drop plan delivers a strict, deterministic
// subset in order.
func TestFaultWriterDrop(t *testing.T) {
	sink := &collect{}
	fw := newFaultWriter(sink, SocketFaultPlan{Seed: 1, DropProb: 0.5}, 0)
	for i := 0; i < 100; i++ {
		fw.writeFrame(Frame{Seq: uint64(i), Type: ftHeartbeat})
	}
	if len(sink.frames) == 0 || len(sink.frames) == 100 {
		t.Fatalf("delivered %d of 100", len(sink.frames))
	}
	last := -1
	for _, f := range sink.frames {
		if int(f.Seq) <= last {
			t.Fatalf("drop-only plan reordered: %d after %d", f.Seq, last)
		}
		last = int(f.Seq)
	}
}

// TestFaultWriterReorder: a held frame goes out right after its successor —
// pairwise swaps, nothing lost.
func TestFaultWriterReorder(t *testing.T) {
	sink := &collect{}
	fw := newFaultWriter(sink, SocketFaultPlan{Seed: 5, ReorderProb: 0.5}, 1)
	const n = 50
	for i := 0; i < n; i++ {
		fw.writeFrame(Frame{Seq: uint64(i), Type: ftTreeDown, Payload: []byte{byte(i)}})
	}
	// The final frame may still be held; flush is not part of the contract,
	// so allow n or n-1 delivered.
	if len(sink.frames) < n-1 {
		t.Fatalf("reorder lost frames: %d of %d", len(sink.frames), n)
	}
	seen := map[uint64]bool{}
	swapped := 0
	last := int64(-1)
	for _, f := range sink.frames {
		if seen[f.Seq] {
			t.Fatalf("duplicated frame %d", f.Seq)
		}
		seen[f.Seq] = true
		if int64(f.Seq) < last {
			swapped++
		} else {
			last = int64(f.Seq)
		}
		if len(f.Payload) != 1 || f.Payload[0] != byte(f.Seq) {
			t.Fatalf("payload corrupted on frame %d", f.Seq)
		}
	}
	if swapped == 0 {
		t.Fatal("reorder plan never reordered")
	}
}

// TestFaultWriterPartition: frames inside the partition window are
// blackholed, frames after it flow again.
func TestFaultWriterPartition(t *testing.T) {
	sink := &collect{}
	fw := newFaultWriter(sink, SocketFaultPlan{Seed: 2, PartitionAfter: 0, PartitionFor: 30 * time.Millisecond}, 0)
	fw.writeFrame(Frame{Seq: 1})
	if len(sink.frames) != 0 {
		t.Fatal("frame escaped the partition window")
	}
	time.Sleep(40 * time.Millisecond)
	fw.writeFrame(Frame{Seq: 2})
	if len(sink.frames) != 1 || sink.frames[0].Seq != 2 {
		t.Fatalf("post-partition frame lost: %+v", sink.frames)
	}
}

// TestWrapWriterPassthrough: a nil/disabled plan uses the bare serialized
// writer with no draws at all.
func TestWrapWriterPassthrough(t *testing.T) {
	var buf bytes.Buffer
	fw := wrapWriter(&buf, nil, 0)
	if _, ok := fw.(*connWriter); !ok {
		t.Fatalf("nil plan should yield connWriter, got %T", fw)
	}
	fw.writeFrame(Frame{Type: ftJoin, Seq: 1})
	if _, err := ReadFrame(&buf); err != nil {
		t.Fatal(err)
	}
}
