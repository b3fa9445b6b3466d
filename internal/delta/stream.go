package delta

import (
	"bufio"
	"bytes"
	"compress/flate"
	"fmt"
	"io"
	"sync"
)

// The line codec's one applier, a state machine (lineApplyReader) that
// both entry points drive. ApplyEncoded runs it over an in-memory source
// into one buffer. ApplyReader runs it over a streamed source, without
// ever materializing the source or target: a delta chain composes into a
// stack of readers where each stage holds only its encoded delta, read in
// place by a cursor, plus one bounded window of its input. That turns
// checkout memory from O(payload × chain) into O(window × chain) — the
// property the streaming serving path is built on. Corrupt or truncated
// deltas and sources surface as errors from Read, never as hangs or
// unbounded allocation.

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
// source streamed from src. It runs ApplyEncoded's machine, so the output
// is byte-identical to ApplyEncoded(enc, src-bytes), including the
// trailing-newline normalization; two-way deltas get the same
// deleted-content context check, one-way deltas consume counts only.
// Because bytes leave before the application ends, the whole encoding is
// validated before the first byte is produced, so a corrupt delta fails on
// the first Read. The reader reads enc in place; the caller must not
// modify it while the reader is in use.
func ApplyReader(enc []byte, src io.Reader) io.Reader {
	if err := validate(enc); err != nil {
		return errReader{err}
	}
	r := &lineApplyReader{}
	if err := r.begin(enc); err != nil {
		return errReader{err}
	}
	r.src = windows.Get().(*bufio.Reader)
	r.src.Reset(src)
	return r
}

// lineApplyReader states. The machine moves copy → hunk → del → ins → copy
// per hunk, with tail emitting the final normalized newline before either
// finishing or (for an insert-at-end hunk after a newline-less source)
// entering the hunk.
const (
	larCopy = iota // copy source lines through until the next hunk
	larHunk        // begin the current hunk: set up deletion
	larDel         // consume (and for two-way, check) deleted source lines
	larIns         // emit inserted lines
	larTail        // emit the final normalized '\n', then tailNext
	larDone
)

// lineApplyReader is the one line-delta applier. It reads its source
// either through a pooled window (ApplyReader) or in place from memory
// (ApplyEncoded). It tracks positions in completed source lines (pos),
// with mid marking a partially copied line; the source's final line may
// lack its newline (SplitLines counts it as a line anyway), which EOF
// handling completes.
type lineApplyReader struct {
	src *bufio.Reader // the streamed source; nil when reading mem, or once finished
	mem []byte        // the in-memory source's unread bytes, when src is nil
	c   cursor        // the encoding, positioned after the current hunk's header

	state    int
	tailNext int  // state after larTail
	pos      int  // completed source lines consumed
	mid      bool // partway through copying source line pos

	// The current hunk, read from c: pending until its lines are applied.
	pending    bool
	sp, nd, ni int

	delLeft int    // source lines the current hunk still deletes
	delMid  bool   // partway through the current deleted line
	delOff  int    // matched bytes of want (two-way)
	want    []byte // the deleted line the source must match (two-way)

	insLeft int    // inserted lines not yet started
	ins     []byte // the inserted line being emitted
	insOff  int    // emitted bytes of ins; len(ins)+1 once its newline is out

	err error
}

// begin reads the encoding's header and its first hunk's.
func (r *lineApplyReader) begin(enc []byte) error {
	var err error
	if r.c, err = newCursor(enc); err != nil {
		return err
	}
	return r.nextHunk()
}

// nextHunk reads the next hunk header, if any, from the cursor.
func (r *lineApplyReader) nextHunk() error {
	r.pending = r.c.hunks > 0
	if !r.pending {
		return nil
	}
	var err error
	r.sp, r.nd, r.ni, err = r.c.hunk()
	return err
}

func (r *lineApplyReader) Read(p []byte) (int, error) {
	if r.err != nil {
		return 0, r.err
	}
	n, err := r.run(p)
	if err != nil {
		r.err = err
		if n > 0 {
			return n, nil // error surfaces on the next call
		}
		return 0, err
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

// run steps the machine, writing its output into p, until p is full, the
// application is done or it fails.
func (r *lineApplyReader) run(p []byte) (int, error) {
	n := 0
	for n < len(p) && r.state != larDone {
		var err error
		switch r.state {
		case larCopy:
			n, err = r.copyStep(p, n)
		case larHunk:
			r.startHunk()
		case larDel:
			if r.delLeft == 0 {
				r.insLeft, r.ins, r.insOff = r.ni, nil, 1
				r.state = larIns
			} else {
				err = r.delStep()
			}
		case larIns:
			n, err = r.insStep(p, n)
		case larTail:
			p[n] = '\n'
			n++
			r.state = r.tailNext
		}
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// window returns the unread source bytes at hand — all of mem, or the
// buffered window, filled first when it is empty. io.EOF means the source
// is exhausted.
func (r *lineApplyReader) window() ([]byte, error) {
	if r.src == nil {
		if len(r.mem) == 0 {
			return nil, io.EOF
		}
		return r.mem, nil
	}
	if b := r.src.Buffered(); b > 0 {
		return r.src.Peek(b)
	}
	if _, err := r.src.Peek(1); err != nil {
		return nil, err
	}
	return r.src.Peek(r.src.Buffered())
}

// discard consumes n bytes of the window.
func (r *lineApplyReader) discard(n int) {
	if r.src == nil {
		r.mem = r.mem[n:]
		return
	}
	r.src.Discard(n)
}

// copyStep copies whole source lines through to p until the next hunk's
// position, advancing pos/mid as lines complete. After the last hunk lines
// need no counting, so each window passes through whole until EOF.
func (r *lineApplyReader) copyStep(p []byte, n int) (int, error) {
	if r.pending && r.pos >= r.sp && !r.mid {
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
	emit := len(w)
	if r.pending {
		emit = 0
		for emit < len(w) && r.pos < r.sp {
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
	} else {
		r.mid = w[emit-1] != '\n'
	}
	copy(p[n:], w[:emit])
	r.discard(emit)
	return n + emit, nil
}

// copyEOF resolves the copy state at source exhaustion: normalize the
// trailing newline, or admit an insert-at-end hunk positioned just past the
// final (possibly newline-less) line.
func (r *lineApplyReader) copyEOF() error {
	if !r.pending {
		if r.mid {
			r.mid = false
			r.pos++
			r.state, r.tailNext = larTail, larDone
		} else {
			r.state = larDone
		}
		return nil
	}
	if r.mid && r.sp == r.pos+1 {
		// The final source line lacked its newline; complete it before the
		// hunk that starts right after it.
		r.mid = false
		r.pos++
		r.state, r.tailNext = larTail, larHunk
		return nil
	}
	if !r.mid && r.sp == r.pos {
		r.state = larHunk
		return nil
	}
	return fmt.Errorf("delta: hunk %d at %d out of order", r.c.hi, r.sp)
}

// startHunk arms the deletion scan of the current hunk. Its position needs
// no check here: copyStep enters this state only at the hunk's line, and
// copyEOF only for a hunk at the source's end.
func (r *lineApplyReader) startHunk() {
	r.delLeft = r.nd
	r.delOff = 0
	r.delMid = false
	r.state = larDel
}

// delStep consumes one window of the current deleted source line, checking
// it against the recorded content for two-way deltas. A final source line
// without a trailing newline is completed by EOF.
func (r *lineApplyReader) delStep() error {
	twoWay := !r.c.oneWay
	if twoWay && !r.delMid {
		// A fresh deleted line: its expected content is next in enc.
		var err error
		if r.want, err = r.c.line(); err != nil {
			return err
		}
	}
	w, err := r.window()
	if err == io.EOF {
		if !r.delMid {
			return fmt.Errorf("delta: hunk %d deletes past end of source", r.c.hi)
		}
		if twoWay && r.delOff != len(r.want) {
			return fmt.Errorf("delta: hunk %d context mismatch at line %d", r.c.hi, r.pos)
		}
		r.delMid = false
		r.delLeft--
		r.pos++
		if r.delLeft > 0 {
			return fmt.Errorf("delta: hunk %d deletes past end of source", r.c.hi)
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
	if twoWay {
		if r.delOff+len(seg) > len(r.want) || !bytes.Equal(seg, r.want[r.delOff:r.delOff+len(seg)]) ||
			(complete && r.delOff+len(seg) != len(r.want)) {
			return fmt.Errorf("delta: hunk %d context mismatch at line %d", r.c.hi, r.pos)
		}
	}
	r.delOff += len(seg)
	if complete {
		r.discard(len(seg) + 1)
		r.delMid = false
		r.delOff = 0
		r.delLeft--
		r.pos++
	} else {
		r.discard(len(w))
		r.delMid = true
	}
	return nil
}

// insStep emits the current hunk's inserted lines (each with its newline),
// reading them from the cursor, into p, and moves back to copy with the
// next hunk's header once the hunk is drained.
func (r *lineApplyReader) insStep(p []byte, n int) (int, error) {
	for n < len(p) {
		if r.insOff > len(r.ins) { // ins and its newline are out
			if r.insLeft == 0 {
				r.state = larCopy
				return n, r.nextHunk()
			}
			line, err := r.c.line()
			if err != nil {
				return n, err
			}
			r.ins, r.insOff = line, 0
			r.insLeft--
		}
		if r.insOff < len(r.ins) {
			c := copy(p[n:], r.ins[r.insOff:])
			n += c
			r.insOff += c
			continue
		}
		p[n] = '\n'
		n++
		r.insOff++
	}
	return n, nil
}

// DecompressReader returns a streaming reader inflating a Compress output.
// The caller owns closing it.
func DecompressReader(r io.Reader) io.ReadCloser {
	return flate.NewReader(r)
}
