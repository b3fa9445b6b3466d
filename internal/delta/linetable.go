package delta

import (
	"bytes"
	"math/bits"
)

// LineTable interns every line of a set of payloads once, so that many
// pairs among them can be differenced without re-splitting a payload per
// pair: each payload becomes a slice of line IDs, equal lines share an ID,
// and the differ compares IDs instead of strings. It exists to size deltas
// (Sizes), not to build them. A LineTable is immutable once built and safe
// for concurrent use; each goroutine brings its own Scratch.
type LineTable struct {
	lines [][]uint32 // per payload: its lines' IDs, in SplitLines order
	// cost[id] is what one line adds to an encoding that carries its
	// content: a uvarint length prefix plus the bytes (see Encode).
	cost []int
}

// NewLineTable interns the lines of payloads; payload i is addressed as i
// in Sizes. Lines are split exactly as SplitLines splits them.
func NewLineTable(payloads [][]byte) *LineTable {
	total := 0
	for _, p := range payloads {
		if len(p) > 0 {
			total += bytes.Count(p[:len(p)-1], []byte{'\n'}) + 1
		}
	}
	t := &LineTable{lines: make([][]uint32, len(payloads))}
	all := make([]uint32, 0, total)
	ids := make(map[string]uint32)
	for i, p := range payloads {
		if len(p) == 0 {
			continue
		}
		if p[len(p)-1] == '\n' {
			p = p[:len(p)-1]
		}
		start := len(all)
		for {
			j := bytes.IndexByte(p, '\n')
			line := p
			if j >= 0 {
				line = p[:j]
			}
			id, ok := ids[string(line)]
			if !ok {
				id = uint32(len(t.cost))
				ids[string(line)] = id
				t.cost = append(t.cost, uvarintLen(len(line))+len(line))
			}
			all = append(all, id)
			if j < 0 {
				break
			}
			p = p[j+1:]
		}
		t.lines[i] = all[start:len(all):len(all)]
	}
	return t
}

// Sizes returns the byte sizes of the one-way encodings of the line delta
// from payload a to payload b and of its inverse — exactly
// len(Encode(DiffLines(pa, pb), true)) and
// len(Encode(DiffLines(pa, pb).Invert(), true)) — computed from the edit
// script's hunks without building a string, a Hunk or an encoding. A pair
// that shares no line past its common prefix is sized without running
// Myers, exactly as DiffLines shortcuts it (see there for why the answer is
// the one Myers gives, and why a common suffix is not stripped too).
func (t *LineTable) Sizes(a, b int, s *Scratch) (fwd, bwd int) {
	x, y := t.lines[a], t.lines[b]
	p := commonPrefix(x, y)
	if del, ins, ok := t.disjoint(x[p:], y[p:], s); ok && len(x)+len(y) > 2*p {
		// Every op past the prefix deletes or inserts, so whatever order
		// the differ picks they form one hunk at line p of both sides: the
		// hunk count 1 and the one-way flag take a byte each, then the
		// hunk's position and counts.
		head := 2 + uvarintLen(p) + uvarintLen(len(x)-p) + uvarintLen(len(y)-p)
		return head + ins, head + del
	}
	ops := myers(x, y, s)
	// A hunk is a maximal run of non-keep ops. Forward it encodes
	// [srcPos][ndel][nins] plus the inserted lines; its inverse starts at
	// the same point in b's coordinates and carries the deleted lines.
	hunks := 0
	ai, bi := 0, 0
	var atA, atB, nd, ni, delBytes, insBytes int
	for i := 0; i <= len(ops); i++ {
		if i == len(ops) || ops[i] == opKeep {
			if nd+ni > 0 {
				hunks++
				fwd += uvarintLen(atA) + uvarintLen(nd) + uvarintLen(ni) + insBytes
				bwd += uvarintLen(atB) + uvarintLen(ni) + uvarintLen(nd) + delBytes
				nd, ni, delBytes, insBytes = 0, 0, 0, 0
			}
			ai++
			bi++
			continue
		}
		if nd+ni == 0 {
			atA, atB = ai, bi
		}
		if ops[i] == opDel {
			delBytes += t.cost[x[ai]]
			nd++
			ai++
		} else {
			insBytes += t.cost[y[bi]]
			ni++
			bi++
		}
	}
	head := uvarintLen(hunks) + 1 // hunk count, then the one-way flag
	return head + fwd, head + bwd
}

// disjoint reports whether x and y share no line, and if so the content
// bytes each side's lines carry. It stamps x's IDs in s.seen with a fresh
// generation, so the marks need no clearing between calls.
func (t *LineTable) disjoint(x, y []uint32, s *Scratch) (del, ins int, ok bool) {
	if len(s.seen) < len(t.cost) {
		s.seen, s.gen = make([]uint32, len(t.cost)), 0
	}
	if s.gen++; s.gen == 0 {
		clear(s.seen)
		s.gen = 1
	}
	for _, id := range x {
		s.seen[id] = s.gen
		del += t.cost[id]
	}
	for _, id := range y {
		if s.seen[id] == s.gen {
			return 0, 0, false
		}
		ins += t.cost[id]
	}
	return del, ins, true
}

// uvarintLen is the number of bytes binary.PutUvarint writes for v.
func uvarintLen(v int) int {
	return (bits.Len64(uint64(v)|1) + 6) / 7
}
