package nic

import (
	"testing"
	"testing/quick"

	"nicwarp/internal/vtime"
)

func TestNewSharedWindowDefaults(t *testing.T) {
	w := NewSharedWindow()
	if w.HostTMin != vtime.Infinity {
		t.Fatal("HostTMin must start at infinity")
	}
	if w.LatestGVT != -1 {
		t.Fatal("LatestGVT must start below any valid virtual time")
	}
	if w.Dropped == nil || w.Dropped.Cap() != DefaultDropBufferCap {
		t.Fatal("drop buffer must exist with the default capacity")
	}
	if PaperDropBufferCap != 10 {
		t.Fatal("the paper's buffer size is 10")
	}
}

func TestDropBufferRecordTake(t *testing.T) {
	b := NewDropBuffer(4)
	b.Record(1, DropKey{ID: 100})
	b.Record(1, DropKey{ID: 200})
	b.Record(2, DropKey{ID: 100})
	if !b.Contains(1, DropKey{ID: 100}) || !b.Contains(2, DropKey{ID: 100}) {
		t.Fatal("Contains")
	}
	if b.Contains(1, DropKey{ID: 999}) {
		t.Fatal("phantom entry")
	}
	if !b.Take(1, DropKey{ID: 100}) {
		t.Fatal("Take should succeed")
	}
	if b.Contains(1, DropKey{ID: 100}) {
		t.Fatal("Take must consume the entry")
	}
	if b.Take(1, DropKey{ID: 100}) {
		t.Fatal("second Take must fail")
	}
	if b.Len(1) != 1 || b.Len(2) != 1 || b.TotalLen() != 2 {
		t.Fatalf("lengths: %d %d %d", b.Len(1), b.Len(2), b.TotalLen())
	}
	if b.Takes.Value() != 1 || b.Misses.Value() != 1 {
		t.Fatalf("takes=%d misses=%d", b.Takes.Value(), b.Misses.Value())
	}
}

func TestDropBufferEviction(t *testing.T) {
	b := NewDropBuffer(3)
	for id := uint64(0); id < 5; id++ {
		b.Record(7, DropKey{ID: id})
	}
	if b.Len(7) != 3 {
		t.Fatalf("len = %d, want capacity 3", b.Len(7))
	}
	if b.Evictions.Value() != 2 {
		t.Fatalf("evictions = %d, want 2", b.Evictions.Value())
	}
	// Oldest entries evicted, newest retained.
	if b.Contains(7, DropKey{ID: 0}) || b.Contains(7, DropKey{ID: 1}) {
		t.Fatal("oldest entries should be evicted")
	}
	if !b.Contains(7, DropKey{ID: 4}) {
		t.Fatal("newest entry missing")
	}
}

func TestDropBufferPerObjectIsolation(t *testing.T) {
	b := NewDropBuffer(2)
	b.Record(1, DropKey{ID: 5})
	b.Record(2, DropKey{ID: 5})
	if !b.Take(1, DropKey{ID: 5}) {
		t.Fatal("take obj1")
	}
	if !b.Contains(2, DropKey{ID: 5}) {
		t.Fatal("obj2 entry must survive obj1 take")
	}
}

func TestDropBufferZeroCapPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewDropBuffer(0)
}

// TestDropBufferConservation: every recorded ID is either still present,
// was taken, or was evicted — records = takes + evictions + remaining.
func TestDropBufferConservation(t *testing.T) {
	f := func(ops []uint8) bool {
		b := NewDropBuffer(3)
		id := uint64(0)
		for _, op := range ops {
			obj := int32(op % 4)
			if op%3 == 0 {
				id++
				b.Record(obj, DropKey{ID: id})
			} else {
				b.Take(obj, DropKey{ID: uint64(op)})
			}
		}
		return b.Records.Value() == b.Takes.Value()+b.Evictions.Value()+int64(b.TotalLen())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestStampCountsTakeInStampOrder(t *testing.T) {
	var s StampCounts
	s.Add(7, 1)
	s.Add(9, 2)
	s.Add(5, 3) // below the window: shifts it down
	s.Add(7, 1)
	base, counts := s.Take()
	want := []int64{3, 0, 2, 0, 2}
	if base != 5 || len(counts) != len(want) {
		t.Fatalf("Take() = %d, %v; want 5, %v", base, counts, want)
	}
	for i := range want {
		if counts[i] != want[i] {
			t.Fatalf("Take() = %d, %v; want 5, %v", base, counts, want)
		}
	}
	if _, rest := s.Take(); len(rest) != 0 {
		t.Fatalf("second Take() = %v, want empty", rest)
	}
	// A drained window restarts at the next stamp added.
	s.Add(40, 1)
	if base, counts := s.Take(); base != 40 || len(counts) != 1 || counts[0] != 1 {
		t.Fatalf("Take() after reuse = %d, %v; want 40, [1]", base, counts)
	}
}
