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
		putUv(uint64(h.SrcPos))
		putUv(uint64(len(h.Del)))
		putUv(uint64(len(h.Ins)))
		if !oneWay {
			for _, l := range h.Del {
				putStr(l)
			}
		}
		for _, l := range h.Ins {
			putStr(l)
		}
	}
	return buf.Bytes()
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
