package delta

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"
)

// Encode serializes a LineDelta. Layout:
//
//	[uvarint nhunks] then per hunk:
//	[uvarint srcPos][uvarint ndel][uvarint nins]
//	[ndel × (uvarint len, bytes)] (omitted when oneWay)
//	[nins × (uvarint len, bytes)]
//
// With oneWay=true deleted content is dropped (only the count survives),
// producing the asymmetric directed delta of §2.1.
func Encode(d *LineDelta, oneWay bool) []byte {
	var buf bytes.Buffer
	var tmp [binary.MaxVarintLen64]byte
	putUv := func(v uint64) {
		n := binary.PutUvarint(tmp[:], v)
		buf.Write(tmp[:n])
	}
	putStr := func(s string) {
		putUv(uint64(len(s)))
		buf.WriteString(s)
	}
	putUv(uint64(len(d.Hunks)))
	if oneWay {
		putUv(1)
	} else {
		putUv(0)
	}
	for _, h := range d.Hunks {
		nd := h.NumDel()
		putUv(uint64(h.SrcPos))
		putUv(uint64(nd))
		putUv(uint64(len(h.Ins)))
		if !oneWay {
			// Count-only hunks (one-way decodes) have no content to
			// upgrade into a two-way encoding; pad with empty lines so the
			// header stays consistent and a later Apply fails loudly on
			// the context check instead of silently skipping deletions.
			for _, l := range h.Del {
				putStr(l)
			}
			for i := len(h.Del); i < nd; i++ {
				putStr("")
			}
		}
		for _, l := range h.Ins {
			putStr(l)
		}
	}
	return buf.Bytes()
}

// maxLinePos bounds the source position a decoded hunk may reach, solely
// so that position arithmetic (SrcPos + count) can never overflow int; any
// conforming encoder output is far below it.
const maxLinePos = 1 << 62

// Decode parses an encoded LineDelta, reporting whether it was one-way.
// One-way deltas decode with nil Del content and the deleted-line count in
// Hunk.DelCount, so Apply still consumes the right lines (the context
// check is skipped for them). Corrupt input — truncated varints, counts
// that exceed the remaining bytes, hunks out of order — returns an error,
// never panics, and never allocates more than O(len(enc)).
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
		// one encoded byte; one-way deletions are a bare count (DelCount),
		// so they allocate nothing no matter what the header claims.
		if ni > uint64(r.Len()) || (!oneWay && nd > uint64(r.Len())) {
			return nil, false, fmt.Errorf("delta: decode hunk %d: %d+%d lines claimed in %d bytes", i, nd, ni, r.Len())
		}
		h := Hunk{SrcPos: int(sp)}
		if !oneWay {
			h.Del = make([]string, nd)
			for j := range h.Del {
				if h.Del[j], err = getStr(); err != nil {
					return nil, false, fmt.Errorf("delta: decode hunk %d del %d: %w", i, j, err)
				}
			}
		} else {
			h.DelCount = int(nd) // count only; no content to carry
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

// ApplyEncoded decodes and applies an encoded delta to src. One-way deltas
// decode to count-only hunks, which Apply consumes by NumDel without a
// deleted-content context check.
func ApplyEncoded(enc, src []byte) ([]byte, error) {
	d, _, err := Decode(enc)
	if err != nil {
		return nil, err
	}
	return d.Apply(src)
}

// Compress deflates b at the default level. Compressing a delta lowers its
// storage cost Δ without lowering the apply work Φ — the mechanism behind
// the paper's Φ ≠ Δ scenario.
func Compress(b []byte) []byte {
	var buf bytes.Buffer
	w, err := flate.NewWriter(&buf, flate.DefaultCompression)
	if err != nil {
		panic(err) // only fires on invalid level
	}
	if _, err := w.Write(b); err != nil {
		panic(err) // bytes.Buffer cannot fail
	}
	if err := w.Close(); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// Decompress inflates a Compress output.
func Decompress(b []byte) ([]byte, error) {
	r := flate.NewReader(bytes.NewReader(b))
	defer r.Close()
	out, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("delta: decompress: %w", err)
	}
	return out, nil
}
