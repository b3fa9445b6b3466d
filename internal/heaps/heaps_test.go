package heaps

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestPushPopSorted(t *testing.T) {
	t.Run("binary", testPushPopSorted)
}

func testPushPopSorted(t *testing.T) {
	h := NewBinary(8)
	values := []float64{5, 3, 8, 1, 9, 2, 7, 4}
	for i, v := range values {
		h.Push(i, v)
	}
	if h.Len() != len(values) {
		t.Fatalf("Len = %d, want %d", h.Len(), len(values))
	}
	var got []float64
	for h.Len() > 0 {
		_, p := h.Pop()
		got = append(got, p)
	}
	if !sort.Float64sAreSorted(got) {
		t.Errorf("pop sequence not sorted: %v", got)
	}
}

func TestPushExistingUpdates(t *testing.T) {
	t.Run("binary", testPushExistingUpdates)
}

func testPushExistingUpdates(t *testing.T) {
	for _, tc := range []struct {
		name    string
		newPrio float64
		want    []int
	}{
		{"decrease", 5, []int{1, 0}},
		{"increase", 30, []int{0, 1}},
	} {
		h := NewBinary(4)
		h.Push(0, 10)
		h.Push(1, 20)
		h.Push(1, tc.newPrio)
		if h.Len() != 2 {
			t.Errorf("%s: Len = %d, want 2 (no duplicates)", tc.name, h.Len())
		}
		for _, want := range tc.want {
			if item, _ := h.Pop(); item != want {
				t.Errorf("%s: Pop = %d, want %d", tc.name, item, want)
			}
		}
	}
}

func TestPopEmptyPanics(t *testing.T) {
	t.Run("binary", testPopEmptyPanics)
}

func testPopEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Errorf("Pop on empty heap did not panic")
		}
	}()
	NewBinary(0).Pop()
}

// TestQuickAgainstReference drives the heap with random operation
// sequences and checks every observation against a naive reference.
func TestQuickAgainstReference(t *testing.T) {
	t.Run("binary", testQuickAgainstReference)
}

func testQuickAgainstReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		h := NewBinary(16)
		ref := map[int]float64{}
		for op := 0; op < 300; op++ {
			if rng.Intn(3) < 2 { // push, new item or priority update
				item := rng.Intn(20)
				pri := float64(rng.Intn(1000))
				h.Push(item, pri)
				ref[item] = pri
			} else if len(ref) > 0 { // pop
				item, pri := h.Pop()
				want, ok := ref[item]
				if !ok || want != pri {
					t.Logf("pop returned (%d,%g), ref %v", item, pri, ref)
					return false
				}
				for _, p := range ref {
					if p < pri {
						t.Logf("pop %g was not the minimum (%v)", pri, ref)
						return false
					}
				}
				delete(ref, item)
			}
			if h.Len() != len(ref) {
				t.Logf("Len %d, ref %d", h.Len(), len(ref))
				return false
			}
		}
		// Drain and verify sortedness + exact multiset.
		prev := -1.0
		for h.Len() > 0 {
			item, pri := h.Pop()
			if pri < prev {
				return false
			}
			prev = pri
			if ref[item] != pri {
				return false
			}
			delete(ref, item)
		}
		return len(ref) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
