package delta

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"
	"testing/iotest"
)

// applyCases are line-codec pairs chosen to hit the streaming state
// machine's edges: empty sides, missing trailing newlines, insert-at-end,
// whole-file deletion, touching hunks, and empty lines.
var applyCases = [][2]string{
	{"", ""},
	{"", "fresh\nlines\n"},
	{"only\n", ""},
	{"a\nb\nc\n", "a\nx\nc\n"},
	{"a\nb\nc\n", "a\nc\n"},
	{"a\nc\n", "a\nb\nc\n"},
	{"no trailing newline", "no trailing newline either"},
	{"ends with line", "ends with line\nplus one more"},
	{"a\nb", "a\nb\nc"},
	{"a\nb\nc", "a\nb"},
	{"\n\n\n", "\n"},
	{"x\n\ny\n", "x\n\nz\n"},
	{"first\nsecond\nthird\nfourth\n", "zeroth\nsecond\nTHIRD\nfourth\nfifth\n"},
}

// readerVariants exercises different chunking of both the source reads and
// the output reads, so partial-line windows and one-byte progress both get
// covered.
func readerVariants(src []byte) map[string]func() io.Reader {
	return map[string]func() io.Reader{
		"plain":       func() io.Reader { return bytes.NewReader(src) },
		"one-byte":    func() io.Reader { return iotest.OneByteReader(bytes.NewReader(src)) },
		"half-window": func() io.Reader { return iotest.HalfReader(bytes.NewReader(src)) },
	}
}

func TestApplyReaderMatchesBuffered(t *testing.T) {
	for _, c := range applyCases {
		a, b := []byte(c[0]), []byte(c[1])
		d := DiffLines(a, b)
		for _, oneWay := range []bool{false, true} {
			enc := Encode(d, oneWay)
			want, err := ApplyEncoded(enc, a)
			if err != nil {
				t.Fatalf("ApplyEncoded(%q→%q, oneWay=%v): %v", c[0], c[1], oneWay, err)
			}
			for name, mk := range readerVariants(a) {
				got, err := io.ReadAll(iotest.OneByteReader(ApplyReader(enc, mk())))
				if err != nil {
					t.Fatalf("%s oneWay=%v %q→%q: %v", name, oneWay, c[0], c[1], err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("%s oneWay=%v %q→%q: got %q, want %q", name, oneWay, c[0], c[1], got, want)
				}
			}
		}
	}
}

// TestApplyReaderLargePayload crosses the bufio window many times with
// edits sprinkled through a multi-hundred-KB payload.
func TestApplyReaderLargePayload(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	lines := make([]string, 4000)
	for i := range lines {
		lines[i] = strings.Repeat("x", 20+rng.Intn(150)) + fmt.Sprint(i)
	}
	a := JoinLines(lines)
	edited := append([]string(nil), lines...)
	for i := 0; i < len(edited); i += 37 {
		edited[i] = "edited " + edited[i]
	}
	edited = append(edited[:100], edited[400:]...) // a big deletion
	b := JoinLines(edited)

	d := DiffLines(a, b)
	for _, oneWay := range []bool{false, true} {
		enc := Encode(d, oneWay)
		got, err := io.ReadAll(ApplyReader(enc, bytes.NewReader(a)))
		if err != nil {
			t.Fatalf("oneWay=%v: %v", oneWay, err)
		}
		if !bytes.Equal(got, b) {
			t.Fatalf("oneWay=%v: large-payload stream apply diverged (got %d bytes, want %d)", oneWay, len(got), len(b))
		}
	}
}

// TestApplyReaderTruncatedDelta: every truncation of a valid encoding must
// leave the stream and the buffered path agreeing with the reference form
// — same bytes or both erroring — and always terminating.
func TestApplyReaderTruncatedDelta(t *testing.T) {
	a := []byte("alpha\nbeta\ngamma\ndelta\n")
	b := []byte("alpha\nBETA\ngamma\nepsilon\nzeta\n")
	enc := Encode(DiffLines(a, b), false)
	for cut := 0; cut < len(enc); cut++ {
		matchesReference(t, enc[:cut], a)
	}
}

// TestApplyReaderTruncatedSource: a source cut mid-stream must produce an
// error (context mismatch, deletes past end, or out of order) — never a
// silent short payload that still looks well-formed to the next stage, and
// never a hang.
func TestApplyReaderTruncatedSource(t *testing.T) {
	a := []byte("alpha\nbeta\ngamma\ndelta\n")
	b := []byte("alpha\nbeta\ngamma\nDELTA\n") // edit in the last line
	for _, oneWay := range []bool{false, true} {
		enc := Encode(DiffLines(a, b), oneWay)
		for cut := 0; cut < len(a)-1; cut++ {
			got, err := io.ReadAll(ApplyReader(enc, bytes.NewReader(a[:cut])))
			want, wantErr := ApplyEncoded(enc, a[:cut])
			if (err == nil) != (wantErr == nil) {
				t.Fatalf("oneWay=%v cut=%d: stream err %v, buffered err %v", oneWay, cut, err, wantErr)
			}
			if err == nil && !bytes.Equal(got, want) {
				t.Fatalf("oneWay=%v cut=%d: got %q, want %q", oneWay, cut, got, want)
			}
		}
	}
}

// TestApplyReaderSourceError: a mid-stream source failure propagates out of
// Read instead of being swallowed as a short payload.
func TestApplyReaderSourceError(t *testing.T) {
	a := []byte("one\ntwo\nthree\n")
	b := []byte("one\ntwo\nTHREE\n")
	enc := Encode(DiffLines(a, b), false)
	boom := errors.New("backend exploded")
	src := io.MultiReader(bytes.NewReader(a[:5]), iotest.ErrReader(boom))
	_, err := io.ReadAll(ApplyReader(enc, src))
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want %v", err, boom)
	}
}

func TestDecompressReaderRoundTrip(t *testing.T) {
	payload := bytes.Repeat([]byte("compress me, repeatedly. "), 1000)
	r := DecompressReader(bytes.NewReader(Compress(payload)))
	defer r.Close()
	got, err := io.ReadAll(r)
	if err != nil {
		t.Fatalf("DecompressReader: %v", err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("round trip diverged: %d bytes, want %d", len(got), len(payload))
	}
}
