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
// script's hunks without building a string, a Hunk or an encoding.
func (t *LineTable) Sizes(a, b int, s *Scratch) (fwd, bwd int) {
	x, y := t.lines[a], t.lines[b]
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

// uvarintLen is the number of bytes binary.PutUvarint writes for v.
func uvarintLen(v int) int {
	return (bits.Len64(uint64(v)|1) + 6) / 7
}
