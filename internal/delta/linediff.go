// Package delta implements the differencing mechanisms of the paper's §2.1
// "Delta Variants": UNIX-style line diffs (via Myers' O(ND) algorithm) in
// one-way (directed) and two-way (symmetric, invertible) forms, and
// flate-compressed encodings of either.
//
// A delta's storage cost Δ is the byte size of its encoding; its recreation
// cost Φ is the work to apply it. For uncompressed deltas Φ ∝ Δ (the
// paper's proportional scenarios); compressing a delta shrinks Δ while
// leaving the apply work unchanged, which is how the Φ ≠ Δ scenario arises.
//
// Applying a delta runs one state machine over its encoding, read in
// place, and the source: ApplyEncoded reads a source in memory into one
// buffer, ApplyReader a streamed source through a bounded window. The work
// is copying the kept source ranges and the inserted lines, with no line
// split out, decoded into a string or re-joined.
//
// A line delta reconstructs its target's canonical line form — the lines
// of SplitLines(b), each ended by a newline — which differs from b when b
// is non-empty and lacks a trailing newline (LineExact). This package does
// not refuse such targets; the layers that choose what to store do: a commit
// (repo.addVersionLocked) materializes such a payload, the cost matrix
// (costs.LineDiffs) reveals no delta edge into it, and store.BuildLayout
// returns an error rather than write one.
package delta

import (
	"strings"
	"sync"
)

// Hunk is one contiguous modification: at line SrcPos of the source
// (0-based, in the original coordinate space), Del lines are removed and
// Ins lines are inserted.
type Hunk struct {
	SrcPos int
	Del    []string
	Ins    []string
}

// LineDelta is a line-based edit script transforming a source byte slice
// into a target. It stores deleted line content, so it is invertible
// ("two-way" in the paper's terminology). Hunks are ordered by SrcPos and
// non-overlapping.
type LineDelta struct {
	Hunks []Hunk
}

// SplitLines splits b into lines, keeping each line without its trailing
// newline. A trailing newline does not create an empty final line.
func SplitLines(b []byte) []string {
	if len(b) == 0 {
		return nil
	}
	s := string(b)
	if s[len(s)-1] == '\n' {
		s = s[:len(s)-1]
	}
	lines := make([]string, 0, strings.Count(s, "\n")+1)
	for {
		i := strings.IndexByte(s, '\n')
		if i < 0 {
			return append(lines, s)
		}
		lines = append(lines, s[:i])
		s = s[i+1:]
	}
}

// DiffLines computes a two-way line delta from a to b using Myers' O(ND)
// greedy algorithm. When the two sides share no line past their common
// prefix it skips the differ and returns one hunk at the prefix's end
// (LineTable.Sizes takes the same shortcut). That answer is exact, not a
// heuristic: round 0 of Myers snakes diagonal 0 through the p common
// leading lines, every later path extends that point, and the search from
// (p, p) is Myers on a[p:], b[p:] shifted; on disjoint remainders every op
// deletes or inserts, so whatever order Myers picks they form one hunk. A
// common suffix must not be stripped the same way: for a = "x\ns\n" and
// b = "s\ny\ns\n" Myers keeps s against b's first line and gives two
// hunks, where prefix-and-suffix stripping would give one.
func DiffLines(a, b []byte) *LineDelta {
	al := SplitLines(a)
	bl := SplitLines(b)
	p := commonPrefix(al, bl)
	if ra, rb := al[p:], bl[p:]; len(ra)+len(rb) > 0 && disjointLines(ra, rb) {
		return &LineDelta{Hunks: []Hunk{{SrcPos: p, Del: ra, Ins: rb}}}
	}
	s := scratchPool.Get().(*Scratch)
	d := sesToHunks(al, bl, myers(al, bl, s))
	s.release()
	return d
}

// commonPrefix is the number of leading lines a and b share.
func commonPrefix[T comparable](a, b []T) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// disjointLines reports whether a and b share no line, so DiffLines can
// skip Myers' O(d²) trace on the remainders past a common prefix that have
// nothing in common. Called on such remainders, a and b differ in their
// first line; a pair sharing its last line is rejected before any set is
// built, and otherwise the set holds the shorter side.
func disjointLines(a, b []string) bool {
	if len(a) > 0 && len(b) > 0 && a[len(a)-1] == b[len(b)-1] {
		return false
	}
	if len(a) > len(b) {
		a, b = b, a
	}
	seen := make(map[string]struct{}, len(a))
	for _, l := range a {
		seen[l] = struct{}{}
	}
	for _, l := range b {
		if _, ok := seen[l]; ok {
			return false
		}
	}
	return true
}

// LineExact reports whether b survives a line delta byte for byte: it is
// empty or ends in a newline. Applying a line delta always rebuilds the
// target's canonical line form, which adds a newline to a payload that
// lacks one — so a payload that is not line-exact may only ever be stored
// materialized.
func LineExact(b []byte) bool {
	return len(b) == 0 || b[len(b)-1] == '\n'
}

// opKind is a shortest-edit-script element.
type opKind byte

const (
	opKeep opKind = iota
	opDel
	opIns
)

// Scratch is the line differ's working memory, reused across diffs so the
// differ allocates nothing once the buffers have grown to fit. The zero
// value is ready to use; a Scratch must not be shared between goroutines.
type Scratch struct {
	v     []int    // furthest-reaching x per diagonal, the current round
	trace []int    // each round's meaningful window of v, for backtracking
	ops   []opKind // the edit script of the last diff
	// seen[id] is the generation that last stamped line ID id, and gen the
	// current one: LineTable.Sizes marks one side's lines without clearing.
	seen []uint32
	gen  uint32
}

// scratchPool serves DiffLines callers, which do not carry a Scratch.
var scratchPool = sync.Pool{New: func() any { return new(Scratch) }}

// maxPooledInts bounds each buffer a pooled Scratch may keep (8 MiB): one
// huge diff should not pin its working memory for every later small one.
const maxPooledInts = 1 << 20

func (s *Scratch) release() {
	if cap(s.v) <= maxPooledInts && cap(s.trace) <= maxPooledInts {
		scratchPool.Put(s)
	}
}

// myers returns the shortest edit script as a sequence of ops over a and b.
// The result aliases s and is valid until s is next used.
//
// Round d reads only the diagonals of parity d-1 within [-(d-1), d-1], all
// written by round d-1 (round 0 reads the untouched diagonal 1), so v needs
// no clearing between calls, and the backtrack needs only those d entries
// of each round: the trace holds d(d+1)/2 ints for an edit distance d
// instead of a full copy of v per round.
func myers[T comparable](a, b []T, s *Scratch) []opKind {
	n, m := len(a), len(b)
	s.ops = s.ops[:0]
	if n == 0 && m == 0 {
		return s.ops
	}
	maxD := n + m
	// v[k+offset] = furthest x on diagonal k.
	offset := maxD
	if cap(s.v) < 2*maxD+1 {
		s.v = make([]int, 2*maxD+1)
	}
	v := s.v[:2*maxD+1]
	v[offset+1] = 0
	// trace holds, for every round d ≥ 1, v at the start of the round on
	// diagonals -(d-1), -(d-1)+2, …, d-1: d entries from index d(d-1)/2.
	trace := s.trace[:0]
	dFound := -1
outer:
	for d := 0; d <= maxD; d++ {
		for k := -(d - 1); k <= d-1; k += 2 {
			trace = append(trace, v[k+offset])
		}
		for k := -d; k <= d; k += 2 {
			var x int
			if k == -d || (k != d && v[k-1+offset] < v[k+1+offset]) {
				x = v[k+1+offset] // down: insertion
			} else {
				x = v[k-1+offset] + 1 // right: deletion
			}
			y := x - k
			for x < n && y < m && a[x] == b[y] {
				x++
				y++
			}
			v[k+offset] = x
			if x >= n && y >= m {
				dFound = d
				break outer
			}
		}
	}
	s.trace = trace
	// Backtrack. vprev[k] is v[k] at the start of round d.
	revOps := s.ops
	x, y := n, m
	for d := dFound; d > 0; d-- {
		vprev := trace[d*(d-1)/2 : d*(d+1)/2]
		at := func(k int) int { return vprev[(k+d-1)/2] }
		k := x - y
		var prevK int
		if k == -d || (k != d && at(k-1) < at(k+1)) {
			prevK = k + 1
		} else {
			prevK = k - 1
		}
		prevX := at(prevK)
		prevY := prevX - prevK
		for x > prevX && y > prevY {
			revOps = append(revOps, opKeep)
			x--
			y--
		}
		if x == prevX {
			revOps = append(revOps, opIns)
			y--
		} else {
			revOps = append(revOps, opDel)
			x--
		}
	}
	for x > 0 && y > 0 {
		revOps = append(revOps, opKeep)
		x--
		y--
	}
	for x > 0 {
		revOps = append(revOps, opDel)
		x--
	}
	for y > 0 {
		revOps = append(revOps, opIns)
		y--
	}
	// Reverse.
	for i, j := 0, len(revOps)-1; i < j; i, j = i+1, j-1 {
		revOps[i], revOps[j] = revOps[j], revOps[i]
	}
	s.ops = revOps
	return revOps
}

// sesToHunks groups a shortest edit script into hunks.
func sesToHunks(a, b []string, ops []opKind) *LineDelta {
	d := &LineDelta{}
	ai, bi := 0, 0
	var cur *Hunk
	flush := func() {
		if cur != nil {
			d.Hunks = append(d.Hunks, *cur)
			cur = nil
		}
	}
	for _, op := range ops {
		switch op {
		case opKeep:
			flush()
			ai++
			bi++
		case opDel:
			if cur == nil {
				cur = &Hunk{SrcPos: ai}
			}
			cur.Del = append(cur.Del, a[ai])
			ai++
		case opIns:
			if cur == nil {
				cur = &Hunk{SrcPos: ai}
			}
			cur.Ins = append(cur.Ins, b[bi])
			bi++
		}
	}
	flush()
	return d
}

// Invert returns the delta transforming b back into a (swap of Del/Ins with
// positions mapped into b's coordinate space).
func (d *LineDelta) Invert() *LineDelta {
	inv := &LineDelta{Hunks: make([]Hunk, len(d.Hunks))}
	shift := 0 // cumulative (ins - del) so far: position adjustment into b
	for i, h := range d.Hunks {
		inv.Hunks[i] = Hunk{
			SrcPos: h.SrcPos + shift,
			Del:    append([]string(nil), h.Ins...),
			Ins:    append([]string(nil), h.Del...),
		}
		shift += len(h.Ins) - len(h.Del)
	}
	return inv
}
