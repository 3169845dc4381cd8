package telemetry

import (
	"sync"
	"testing"
)

func TestRegistryIdentity(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("hits", Label{Key: "op", Value: "get"})
	b := r.Counter("hits", Label{Key: "op", Value: "get"})
	if a != b {
		t.Fatal("same name+labels must resolve to the same counter")
	}
	other := r.Counter("hits", Label{Key: "op", Value: "put"})
	if a == other {
		t.Fatal("different labels must resolve to different counters")
	}
	// Label order must not matter.
	x := r.Gauge("g", Label{Key: "a", Value: "1"}, Label{Key: "b", Value: "2"})
	y := r.Gauge("g", Label{Key: "b", Value: "2"}, Label{Key: "a", Value: "1"})
	if x != y {
		t.Fatal("label order must not change identity")
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on kind mismatch")
		}
	}()
	r.Gauge("m")
}

func TestRegistryConcurrentGetOrCreate(t *testing.T) {
	r := NewRegistry()
	const goroutines, perG = 16, 200
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				r.Counter("shared").Add(1)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("shared").Value(); got != goroutines*perG {
		t.Fatalf("shared counter = %d; want %d", got, goroutines*perG)
	}
}

func TestRegistrySnapshotOrder(t *testing.T) {
	r := NewRegistry()
	r.Gauge("zeta").Set(1)
	r.Counter("alpha").Add(2)
	r.Histogram("mid", []float64{1}).Observe(0.5)
	snap := r.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("snapshot len = %d; want 3", len(snap))
	}
	wantOrder := []string{"alpha", "mid", "zeta"}
	for i, w := range wantOrder {
		if snap[i].Name != w {
			t.Fatalf("snapshot[%d] = %q; want %q", i, snap[i].Name, w)
		}
	}
	if snap[0].Kind != KindCounter || snap[0].Value != 2 {
		t.Fatalf("counter point wrong: %+v", snap[0])
	}
	if snap[1].Hist == nil || snap[1].Hist.Count != 1 || snap[1].Hist.Sum != 0.5 {
		t.Fatalf("histogram point wrong: %+v", snap[1].Hist)
	}
}
