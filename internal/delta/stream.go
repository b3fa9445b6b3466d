package delta

import (
	"bufio"
	"bytes"
	"compress/flate"
	"fmt"
	"io"
	"sync"
)

// Reader-based delta application for the line codec, the only delta codec
// in this package. ApplyReader returns a reader that produces
// exactly the bytes ApplyEncoded would, without ever materializing the
// source or target: a delta chain composes into a stack of readers where
// each stage holds only the (small) decoded delta plus one bounded window
// of its input. That turns checkout memory from O(payload × chain) into
// O(window × chain) — the property the streaming serving path is built on.
// Corrupt or truncated deltas and sources surface as errors from Read,
// never as hangs or unbounded allocation.

// applyReaderBufSize is the copy-through window of the line-delta reader:
// large enough to amortize syscalls on big payloads, small enough that a
// deep composed stack stays cheap.
const applyReaderBufSize = 32 << 10

// windows recycles the source windows of finished stages: a cold checkout
// applies one stage per chain edge and drains most of them to EOF. A
// sync.Pool rather than a bounded free list (as the gzip coders in
// internal/vcs use) because the number of windows in use scales with
// chain depth, not with GOMAXPROCS.
var windows = sync.Pool{New: func() any { return bufio.NewReaderSize(nil, applyReaderBufSize) }}

// errReader delivers a construction-time failure on first Read, so
// ApplyReader can keep a reader-only signature.
type errReader struct{ err error }

func (e errReader) Read([]byte) (int, error) { return 0, e.err }

// ApplyReader returns a reader applying the encoded line delta enc to the
// source streamed from src. The output is byte-identical to
// ApplyEncoded(enc, src-bytes), including the trailing-newline
// normalization of SplitLines/JoinLines; two-way deltas get the same
// deleted-content context check, one-way deltas consume counts only.
func ApplyReader(enc []byte, src io.Reader) io.Reader {
	d, oneWay, err := Decode(enc)
	if err != nil {
		return errReader{err}
	}
	w := windows.Get().(*bufio.Reader)
	w.Reset(src)
	return &lineApplyReader{src: w, hunks: d.Hunks, twoWay: !oneWay}
}

// lineApplyReader states. The machine moves copy → hunk → del → ins → copy
// per hunk, with tail emitting the final normalized newline before either
// finishing or (for an insert-at-end hunk after a newline-less source)
// entering the hunk.
const (
	larCopy = iota // copy source lines through until the next hunk
	larHunk        // begin hunks[hi]: validate position, set up deletion
	larDel         // consume (and for two-way, check) deleted source lines
	larIns         // emit inserted lines
	larTail        // emit the final normalized '\n', then tailNext
	larDone
)

// lineApplyReader streams a line-delta application. It tracks positions in
// completed source lines (pos), with mid marking a partially copied line;
// the source's final line may lack its newline (SplitLines counts it as a
// line anyway), which EOF handling completes.
type lineApplyReader struct {
	src    *bufio.Reader // nil once finished: the window is back in windows
	hunks  []Hunk
	twoWay bool

	state    int
	tailNext int  // state after larTail
	hi       int  // current hunk index
	pos      int  // completed source lines consumed
	mid      bool // partway through copying source line pos

	delLeft int  // source lines the current hunk still deletes
	delMid  bool // partway through the current deleted line
	delOff  int  // matched bytes of the expected deleted line (two-way)

	insIdx int // next Ins line to emit
	insOff int // emitted bytes of hunks[hi].Ins[insIdx]

	err error
}

func (r *lineApplyReader) Read(p []byte) (int, error) {
	if r.err != nil {
		return 0, r.err
	}
	n := 0
	for n < len(p) && r.state != larDone {
		var err error
		switch r.state {
		case larCopy:
			n, err = r.copyStep(p, n)
		case larHunk:
			err = r.startHunk()
		case larDel:
			if r.delLeft == 0 {
				r.insIdx, r.insOff = 0, 0
				r.state = larIns
			} else {
				err = r.delStep()
			}
		case larIns:
			n = r.insStep(p, n)
		case larTail:
			p[n] = '\n'
			n++
			r.state = r.tailNext
		}
		if err != nil {
			r.err = err
			if n > 0 {
				return n, nil // error surfaces on the next call
			}
			return 0, err
		}
	}
	if r.state == larDone && r.src != nil {
		// Finished: the source is never read again, so its window can
		// serve another stage.
		r.src.Reset(nil)
		windows.Put(r.src)
		r.src = nil
	}
	if n == 0 {
		if r.state == larDone {
			return 0, io.EOF
		}
		return 0, nil // zero-length p
	}
	return n, nil
}

// window returns the buffered source bytes, filling the buffer first when
// it is empty. io.EOF means the source is exhausted.
func (r *lineApplyReader) window() ([]byte, error) {
	if b := r.src.Buffered(); b > 0 {
		return r.src.Peek(b)
	}
	if _, err := r.src.Peek(1); err != nil {
		return nil, err
	}
	return r.src.Peek(r.src.Buffered())
}

// copyStep copies whole source lines through to p until the next hunk's
// position (or EOF after the last hunk), advancing pos/mid as lines
// complete.
func (r *lineApplyReader) copyStep(p []byte, n int) (int, error) {
	stop := int(^uint(0) >> 1) // no hunk left: copy to EOF
	if r.hi < len(r.hunks) {
		stop = r.hunks[r.hi].SrcPos
	}
	if r.hi < len(r.hunks) && r.pos >= stop && !r.mid {
		r.state = larHunk
		return n, nil
	}
	w, err := r.window()
	if err == io.EOF {
		return n, r.copyEOF()
	}
	if err != nil {
		return n, err
	}
	if room := len(p) - n; len(w) > room {
		w = w[:room]
	}
	emit := 0
	for emit < len(w) && r.pos < stop {
		idx := bytes.IndexByte(w[emit:], '\n')
		if idx < 0 {
			emit = len(w)
			r.mid = true
			break
		}
		emit += idx + 1
		r.pos++
		r.mid = false
	}
	copy(p[n:], w[:emit])
	r.src.Discard(emit)
	return n + emit, nil
}

// copyEOF resolves the copy state at source exhaustion: normalize the
// trailing newline, or admit an insert-at-end hunk positioned just past the
// final (possibly newline-less) line.
func (r *lineApplyReader) copyEOF() error {
	if r.hi >= len(r.hunks) {
		if r.mid {
			r.mid = false
			r.pos++
			r.state, r.tailNext = larTail, larDone
		} else {
			r.state = larDone
		}
		return nil
	}
	target := r.hunks[r.hi].SrcPos
	if r.mid && target == r.pos+1 {
		// The final source line lacked its newline; complete it before the
		// hunk that starts right after it.
		r.mid = false
		r.pos++
		r.state, r.tailNext = larTail, larHunk
		return nil
	}
	if !r.mid && target == r.pos {
		r.state = larHunk
		return nil
	}
	return fmt.Errorf("delta: hunk %d at %d out of order", r.hi, target)
}

// startHunk validates the current hunk's position and arms the deletion
// scan.
func (r *lineApplyReader) startHunk() error {
	h := &r.hunks[r.hi]
	if h.SrcPos != r.pos {
		return fmt.Errorf("delta: hunk %d at %d out of order", r.hi, h.SrcPos)
	}
	r.delLeft = h.NumDel()
	r.delOff = 0
	r.delMid = false
	r.state = larDel
	return nil
}

// delStep consumes one window of the current deleted source line, checking
// it against the recorded content for two-way deltas. A final source line
// without a trailing newline is completed by EOF.
func (r *lineApplyReader) delStep() error {
	h := &r.hunks[r.hi]
	w, err := r.window()
	if err == io.EOF {
		if !r.delMid {
			return fmt.Errorf("delta: hunk %d deletes past end of source", r.hi)
		}
		if r.twoWay && r.delOff != len(h.Del[h.NumDel()-r.delLeft]) {
			return fmt.Errorf("delta: hunk %d context mismatch at line %d", r.hi, r.pos)
		}
		r.delMid = false
		r.delLeft--
		r.pos++
		if r.delLeft > 0 {
			return fmt.Errorf("delta: hunk %d deletes past end of source", r.hi)
		}
		return nil
	}
	if err != nil {
		return err
	}
	seg := w
	complete := false
	if idx := bytes.IndexByte(w, '\n'); idx >= 0 {
		seg = w[:idx]
		complete = true
	}
	if r.twoWay {
		want := h.Del[h.NumDel()-r.delLeft]
		if r.delOff+len(seg) > len(want) || string(seg) != want[r.delOff:r.delOff+len(seg)] ||
			(complete && r.delOff+len(seg) != len(want)) {
			return fmt.Errorf("delta: hunk %d context mismatch at line %d", r.hi, r.pos)
		}
	}
	r.delOff += len(seg)
	if complete {
		r.src.Discard(len(seg) + 1)
		r.delMid = false
		r.delOff = 0
		r.delLeft--
		r.pos++
	} else {
		r.src.Discard(len(w))
		r.delMid = true
	}
	return nil
}

// insStep emits the current hunk's inserted lines (each with its newline)
// into p, moving back to copy once the hunk is drained.
func (r *lineApplyReader) insStep(p []byte, n int) int {
	ins := r.hunks[r.hi].Ins
	for n < len(p) {
		if r.insIdx >= len(ins) {
			r.hi++
			r.state = larCopy
			return n
		}
		line := ins[r.insIdx]
		if r.insOff < len(line) {
			c := copy(p[n:], line[r.insOff:])
			n += c
			r.insOff += c
			continue
		}
		p[n] = '\n'
		n++
		r.insIdx++
		r.insOff = 0
	}
	return n
}

// DecompressReader returns a streaming reader inflating a Compress output.
// The caller owns closing it.
func DecompressReader(r io.Reader) io.ReadCloser {
	return flate.NewReader(r)
}
