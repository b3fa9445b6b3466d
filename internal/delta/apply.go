package delta

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
)

// maxLinePos bounds the source position a decoded hunk may reach, solely
// so that position arithmetic (SrcPos + count) can never overflow int; any
// conforming encoder output is far below it.
const maxLinePos = 1 << 62

// cursor reads an encoded line delta (see Encode) in place: hunk headers
// and length-prefixed lines come straight from the encoding, and a line it
// returns aliases enc rather than copying it. It makes every check Decode
// makes, at the point it reads the bytes concerned: truncated varints,
// hunk and line counts beyond the remaining bytes, out-of-order hunks and
// the maxLinePos bound.
type cursor struct {
	enc    []byte // bytes not yet read
	hunks  int    // hunk headers not yet read
	hi     int    // index of the hunk last read, for errors
	oneWay bool
	next   uint64 // first source line the next hunk may touch
}

// errVarintOverflow mirrors encoding/binary's overflow error, which that
// package does not export.
var errVarintOverflow = errors.New("varint overflows a 64-bit integer")

// newCursor reads the encoding's header: the hunk count and the one-way
// flag.
func newCursor(enc []byte) (cursor, error) {
	c := cursor{enc: enc, hi: -1}
	nh, err := c.uvarint()
	if err != nil {
		return c, fmt.Errorf("delta: decode: %w", err)
	}
	// Every hunk encodes at least three varint bytes, so a count beyond
	// the remaining length is corrupt.
	if nh > uint64(len(c.enc)) {
		return c, fmt.Errorf("delta: decode: %d hunks claimed in %d bytes", nh, len(c.enc))
	}
	ow, err := c.uvarint()
	if err != nil {
		return c, fmt.Errorf("delta: decode: %w", err)
	}
	c.hunks, c.oneWay = int(nh), ow == 1
	return c, nil
}

func (c *cursor) uvarint() (uint64, error) {
	v, n := binary.Uvarint(c.enc)
	switch {
	case n > 0:
		c.enc = c.enc[n:]
		return v, nil
	case n < 0:
		return 0, errVarintOverflow
	case len(c.enc) == 0:
		return 0, io.EOF
	}
	return 0, io.ErrUnexpectedEOF
}

// hunk reads the next hunk's header: its source position and its deleted
// and inserted line counts. The hunk's lines follow it in the encoding —
// for a two-way delta nd deleted lines then ni inserted ones, for a
// one-way delta only the ni inserted ones.
func (c *cursor) hunk() (sp, nd, ni int, err error) {
	c.hunks--
	c.hi++
	var h [3]uint64
	for k := range h {
		if h[k], err = c.uvarint(); err != nil {
			return 0, 0, 0, fmt.Errorf("delta: decode hunk %d: %w", c.hi, err)
		}
	}
	s, d, n := h[0], h[1], h[2]
	// Hunks advance monotonically through the source; the position bound
	// only protects the int arithmetic.
	if s < c.next || s > maxLinePos || d > maxLinePos-s {
		return 0, 0, 0, fmt.Errorf("delta: decode hunk %d: source span [%d,%d+%d) invalid at line %d", c.hi, s, s, d, c.next)
	}
	c.next = s + d
	// Inserted lines (and two-way deleted lines) each take at least one
	// encoded byte; one-way deletions are a bare count.
	if n > uint64(len(c.enc)) || (!c.oneWay && d > uint64(len(c.enc))) {
		return 0, 0, 0, fmt.Errorf("delta: decode hunk %d: %d+%d lines claimed in %d bytes", c.hi, d, n, len(c.enc))
	}
	return int(s), int(d), int(n), nil
}

// line reads one length-prefixed line of the current hunk, without its
// newline. The result aliases the encoding.
func (c *cursor) line() ([]byte, error) {
	n, err := c.uvarint()
	if err == nil && n > uint64(len(c.enc)) {
		err = fmt.Errorf("line of %d bytes in %d remaining", n, len(c.enc))
	}
	if err != nil {
		return nil, fmt.Errorf("delta: decode hunk %d line: %w", c.hi, err)
	}
	l := c.enc[:n:n]
	c.enc = c.enc[n:]
	return l, nil
}

// validate walks the whole encoding, failing wherever Decode would, so a
// caller can refuse a corrupt delta before it produces a byte.
func validate(enc []byte) error {
	c, err := newCursor(enc)
	if err != nil {
		return err
	}
	for c.hunks > 0 {
		_, nd, ni, err := c.hunk()
		if err != nil {
			return err
		}
		if c.oneWay {
			nd = 0
		}
		for k := nd + ni; k > 0; k-- {
			if _, err := c.line(); err != nil {
				return err
			}
		}
	}
	return nil
}

// ApplyEncoded applies an encoded line delta to src: it runs ApplyReader's
// machine with src as an in-memory source, read in place, into a single
// output buffer. The result is the edited lines of src, each ended by a
// newline, so a final source line without one gains it. Two-way deltas
// check each deleted line against the source; one-way deltas consume
// counts only.
//
// It is byte-identical to Decode followed by LineDelta.Apply, and fails
// wherever they fail; when an encoding is corrupt after a hunk that does
// not fit the source, it names the misfit rather than the corruption. No
// pre-validation is needed: the result is returned only once the machine
// has read every hunk.
func ApplyEncoded(enc, src []byte) ([]byte, error) {
	r := lineApplyReader{mem: src}
	if err := r.begin(enc); err != nil {
		return nil, err
	}
	// Each output byte is a kept source byte, an inserted line's byte or
	// newline (paid for in enc by the line and its length prefix), or the
	// newline an unterminated final source line gains; enc's header is two
	// more bytes. So the machine always finishes short of the buffer's end,
	// and one allocation serves.
	out := make([]byte, len(src)+len(enc)+1)
	n, err := r.run(out)
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil // no lines, as the reference form returns
	}
	out = out[:n]
	if cap(out) > 2*n {
		// A delta that deletes most of its source leaves the buffer mostly
		// spare; a caller that keeps the result (the version cache charges
		// len only) must not pin that spare room.
		out = append(make([]byte, 0, n), out...)
	}
	return out, nil
}
