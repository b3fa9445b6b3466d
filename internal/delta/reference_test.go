package delta

// The string-level reference form of the line codec: Decode builds a
// LineDelta of Go strings and LineDelta.Apply splits the source, edits the
// lines and re-joins them. No serving path uses it — ApplyEncoded and
// ApplyReader read encodings in place — so it lives with the tests, which
// hold both to it byte for byte and error for error.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
)

// JoinLines is the inverse of SplitLines (always emits a trailing newline
// when there is at least one line).
func JoinLines(lines []string) []byte {
	if len(lines) == 0 {
		return nil
	}
	var buf bytes.Buffer
	for _, l := range lines {
		buf.WriteString(l)
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

// maxOneWayLines bounds the source span a one-way delta may claim here, so
// that its placeholder lines (see Decode) stay small whatever its header
// says. No test source has that many lines, and against a shorter source
// ApplyEncoded refuses such a delta too, as deleting past the end.
const maxOneWayLines = 1 << 20

// Decode parses an encoded LineDelta, reporting whether it was one-way.
// A one-way encoding keeps only the count of deleted lines, so each of its
// hunks decodes with that many empty placeholder Del lines; apply with
// oneWay set consumes them without the context check. Corrupt input —
// truncated varints, counts that exceed the remaining bytes, hunks out of
// order — returns an error, never panics, and never allocates more than
// O(len(enc) + maxOneWayLines).
func Decode(enc []byte) (*LineDelta, bool, error) {
	r := bytes.NewReader(enc)
	getUv := func() (uint64, error) { return binary.ReadUvarint(r) }
	getStr := func() (string, error) {
		n, err := getUv()
		if err != nil {
			return "", err
		}
		if n > uint64(r.Len()) {
			return "", fmt.Errorf("line of %d bytes in %d remaining", n, r.Len())
		}
		b := make([]byte, n)
		if _, err := io.ReadFull(r, b); err != nil {
			return "", err
		}
		return string(b), nil
	}
	nh, err := getUv()
	if err != nil {
		return nil, false, fmt.Errorf("delta: decode: %w", err)
	}
	// Every hunk encodes at least three varint bytes, so a count beyond
	// the remaining length is corrupt — and capping here keeps the Hunks
	// allocation proportional to the input.
	if nh > uint64(r.Len()) {
		return nil, false, fmt.Errorf("delta: decode: %d hunks claimed in %d bytes", nh, r.Len())
	}
	ow, err := getUv()
	if err != nil {
		return nil, false, fmt.Errorf("delta: decode: %w", err)
	}
	oneWay := ow == 1
	d := &LineDelta{Hunks: make([]Hunk, 0, nh)}
	pos := uint64(0) // first source line the next hunk may touch
	for i := 0; i < int(nh); i++ {
		sp, err := getUv()
		if err != nil {
			return nil, false, fmt.Errorf("delta: decode hunk %d: %w", i, err)
		}
		nd, err := getUv()
		if err != nil {
			return nil, false, fmt.Errorf("delta: decode hunk %d: %w", i, err)
		}
		ni, err := getUv()
		if err != nil {
			return nil, false, fmt.Errorf("delta: decode hunk %d: %w", i, err)
		}
		// Hunks advance monotonically through the source (Apply enforces
		// the same); the position bound only protects the int arithmetic.
		if sp < pos || sp > maxLinePos || nd > maxLinePos-sp {
			return nil, false, fmt.Errorf("delta: decode hunk %d: source span [%d,%d+%d) invalid at line %d", i, sp, sp, nd, pos)
		}
		pos = sp + nd
		// Inserted lines (and two-way deleted lines) each consume at least
		// one encoded byte; one-way deletions are a bare count, whose
		// placeholders maxOneWayLines bounds in total, as hunks do not
		// overlap.
		if ni > uint64(r.Len()) || (!oneWay && nd > uint64(r.Len())) {
			return nil, false, fmt.Errorf("delta: decode hunk %d: %d+%d lines claimed in %d bytes", i, nd, ni, r.Len())
		}
		if oneWay && pos > maxOneWayLines {
			return nil, false, fmt.Errorf("delta: decode hunk %d: one-way span ends at line %d, past %d", i, pos, maxOneWayLines)
		}
		h := Hunk{SrcPos: int(sp), Del: make([]string, nd)}
		for j := 0; !oneWay && j < len(h.Del); j++ {
			if h.Del[j], err = getStr(); err != nil {
				return nil, false, fmt.Errorf("delta: decode hunk %d del %d: %w", i, j, err)
			}
		}
		h.Ins = make([]string, ni)
		for j := range h.Ins {
			if h.Ins[j], err = getStr(); err != nil {
				return nil, false, fmt.Errorf("delta: decode hunk %d ins %d: %w", i, j, err)
			}
		}
		d.Hunks = append(d.Hunks, h)
	}
	return d, oneWay, nil
}

// Apply transforms src (which must equal the original a) into the target b.
func (d *LineDelta) Apply(src []byte) ([]byte, error) { return d.apply(src, false) }

// apply is Apply for a delta as Decode returns it: when oneWay is set, the
// Del lines are placeholders, so only their count is held to the source.
func (d *LineDelta) apply(src []byte, oneWay bool) ([]byte, error) {
	lines := SplitLines(src)
	var out []string
	pos := 0
	for hi, h := range d.Hunks {
		if h.SrcPos < pos || h.SrcPos > len(lines) {
			return nil, fmt.Errorf("delta: hunk %d at %d out of order (pos %d, %d lines)", hi, h.SrcPos, pos, len(lines))
		}
		out = append(out, lines[pos:h.SrcPos]...)
		pos = h.SrcPos
		if pos+len(h.Del) > len(lines) {
			return nil, fmt.Errorf("delta: hunk %d deletes past end of source", hi)
		}
		for i, dl := range h.Del {
			if !oneWay && lines[pos+i] != dl {
				return nil, fmt.Errorf("delta: hunk %d context mismatch at line %d", hi, pos+i)
			}
		}
		pos += len(h.Del)
		out = append(out, h.Ins...)
	}
	out = append(out, lines[pos:]...)
	return JoinLines(out), nil
}
