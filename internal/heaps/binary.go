// Package heaps provides the indexed binary min-heap that Prim's and
// Dijkstra's algorithms (and MP's greedy attachment loop) run on. Items
// are integers (vertex ids) with float64 priorities; pushing an item that
// is already queued updates its priority in place, so the queue never
// holds stale duplicates.
//
// The paper (§3) notes that Prim's and Dijkstra's algorithms run in
// O(E log V) with a binary-heap priority queue and O(E + V log V) with a
// Fibonacci-heap-style queue. The binary heap is the one the solvers use:
// a different heap could change which of several equal-priority items
// pops first, and with it tie order, layouts and benchmark counters.
package heaps

// Binary is an indexed binary min-heap keyed by float64 priority.
// Items are non-negative ints (vertex ids). The zero value is not usable;
// call NewBinary.
type Binary struct {
	items []int     // heap order
	prio  []float64 // priority per heap slot
	pos   map[int]int
}

// NewBinary returns an empty indexed binary heap with capacity hint n.
func NewBinary(n int) *Binary {
	return &Binary{
		items: make([]int, 0, n),
		prio:  make([]float64, 0, n),
		pos:   make(map[int]int, n),
	}
}

// Len reports the number of items in the heap.
func (h *Binary) Len() int { return len(h.items) }

// Push inserts item with the given priority. If the item is already present
// its priority is updated (up or down).
func (h *Binary) Push(item int, priority float64) {
	if i, ok := h.pos[item]; ok {
		old := h.prio[i]
		h.prio[i] = priority
		if priority < old {
			h.up(i)
		} else {
			h.down(i)
		}
		return
	}
	h.items = append(h.items, item)
	h.prio = append(h.prio, priority)
	h.pos[item] = len(h.items) - 1
	h.up(len(h.items) - 1)
}

// Pop removes and returns the item with the minimum priority.
// It panics if the heap is empty.
func (h *Binary) Pop() (int, float64) {
	if len(h.items) == 0 {
		panic("heaps: Pop from empty Binary heap")
	}
	top := h.items[0]
	pri := h.prio[0]
	last := len(h.items) - 1
	h.swap(0, last)
	h.items = h.items[:last]
	h.prio = h.prio[:last]
	delete(h.pos, top)
	if last > 0 {
		h.down(0)
	}
	return top, pri
}

func (h *Binary) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if h.prio[parent] <= h.prio[i] {
			break
		}
		h.swap(i, parent)
		i = parent
	}
}

func (h *Binary) down(i int) {
	n := len(h.items)
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && h.prio[l] < h.prio[small] {
			small = l
		}
		if r < n && h.prio[r] < h.prio[small] {
			small = r
		}
		if small == i {
			return
		}
		h.swap(i, small)
		i = small
	}
}

func (h *Binary) swap(i, j int) {
	if i == j {
		return
	}
	h.items[i], h.items[j] = h.items[j], h.items[i]
	h.prio[i], h.prio[j] = h.prio[j], h.prio[i]
	h.pos[h.items[i]] = i
	h.pos[h.items[j]] = j
}
