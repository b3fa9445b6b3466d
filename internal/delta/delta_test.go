package delta

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

// TestSplitLinesEdgeCases pins SplitLines on the inputs where a splitter
// most easily goes wrong: empty input, lone and doubled newlines, a final
// line without its newline, and a CRLF line, whose '\r' stays in the line.
func TestSplitLinesEdgeCases(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"", nil},
		{"\n", []string{""}},
		{"\n\n", []string{"", ""}},
		{"a", []string{"a"}},
		{"a\n", []string{"a"}},
		{"a\nb\n", []string{"a", "b"}},
		{"a\n\nb", []string{"a", "", "b"}},
		{"a\r\nb\n", []string{"a\r", "b"}},
	}
	for _, tc := range cases {
		got := SplitLines([]byte(tc.in))
		if !slices.Equal(got, tc.want) || (got == nil) != (tc.want == nil) {
			t.Errorf("SplitLines(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestSplitJoinLines(t *testing.T) {
	if got := JoinLines([]string{"a", "b"}); string(got) != "a\nb\n" {
		t.Errorf("JoinLines = %q", got)
	}
	if got := JoinLines(nil); got != nil {
		t.Errorf("JoinLines(nil) = %q", got)
	}
}

func TestDiffIdentical(t *testing.T) {
	a := []byte("x\ny\nz\n")
	d := DiffLines(a, a)
	if len(d.Hunks) != 0 {
		t.Errorf("diff of identical inputs has %d hunks", len(d.Hunks))
	}
	out, err := d.Apply(a)
	if err != nil || !bytes.Equal(out, a) {
		t.Errorf("Apply identity failed: %q, %v", out, err)
	}
}

func TestDiffSimpleEdit(t *testing.T) {
	a := []byte("one\ntwo\nthree\n")
	b := []byte("one\nTWO\nthree\nfour\n")
	d := DiffLines(a, b)
	out, err := d.Apply(a)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if !bytes.Equal(out, b) {
		t.Errorf("Apply = %q, want %q", out, b)
	}
	if len(d.Hunks) == 0 {
		t.Errorf("no hunks for a real change")
	}
}

func TestDiffEmptySides(t *testing.T) {
	a := []byte("one\ntwo\n")
	for _, tc := range []struct{ from, to []byte }{
		{nil, a},
		{a, nil},
		{nil, nil},
	} {
		d := DiffLines(tc.from, tc.to)
		out, err := d.Apply(tc.from)
		if err != nil {
			t.Fatalf("Apply(%q→%q): %v", tc.from, tc.to, err)
		}
		if !bytes.Equal(out, tc.to) {
			t.Errorf("Apply(%q→%q) = %q", tc.from, tc.to, out)
		}
	}
}

func TestApplyContextMismatch(t *testing.T) {
	a := []byte("one\ntwo\n")
	b := []byte("one\nTWO\n")
	d := DiffLines(a, b)
	if _, err := d.Apply([]byte("completely\ndifferent\n")); err == nil {
		t.Errorf("Apply on wrong base succeeded")
	}
}

func TestInvertRoundTrip(t *testing.T) {
	a := []byte("a\nb\nc\nd\ne\n")
	b := []byte("a\nX\nc\ne\nf\ng\n")
	d := DiffLines(a, b)
	back, err := d.Invert().Apply(b)
	if err != nil {
		t.Fatalf("Invert().Apply: %v", err)
	}
	if !bytes.Equal(back, a) {
		t.Errorf("invert round trip = %q, want %q", back, a)
	}
}

// TestSizes checks the asymmetry of directed deltas (§2.1) on a pure
// deletion: the one-way encoding keeps only a count of the deleted lines.
func TestSizes(t *testing.T) {
	a := []byte("aaaa\nbbbb\ncccc\n")
	b := []byte("aaaa\ncccc\n") // pure deletion
	d := DiffLines(a, b)
	if ow, tw := len(Encode(d, true)), len(Encode(d, false)); ow >= tw {
		t.Errorf("one-way encoding %d bytes not smaller than two-way %d for a deletion", ow, tw)
	}
}

func randomLines(rng *rand.Rand, n int) []byte {
	var sb strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&sb, "line-%d-%d\n", rng.Intn(8), rng.Intn(4))
	}
	return []byte(sb.String())
}

func mutate(rng *rand.Rand, in []byte) []byte {
	lines := SplitLines(in)
	out := make([]string, 0, len(lines)+4)
	for _, l := range lines {
		switch rng.Intn(10) {
		case 0: // delete
		case 1: // modify
			out = append(out, l+"-mod")
		case 2: // insert before
			out = append(out, fmt.Sprintf("new-%d", rng.Intn(100)), l)
		default:
			out = append(out, l)
		}
	}
	return JoinLines(out)
}

// TestQuickDiffApply: apply(a, diff(a,b)) == b for random line files,
// through the in-memory, encoded two-way, and encoded one-way paths.
func TestQuickDiffApply(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randomLines(rng, rng.Intn(60))
		b := mutate(rng, a)
		d := DiffLines(a, b)
		out, err := d.Apply(a)
		if err != nil || !bytes.Equal(out, b) {
			t.Logf("plain apply: %v", err)
			return false
		}
		// Two-way encoding round trip.
		enc := Encode(d, false)
		out2, err := ApplyEncoded(enc, a)
		if err != nil || !bytes.Equal(out2, b) {
			t.Logf("two-way encoded apply: %v", err)
			return false
		}
		// One-way encoding applies forward.
		ow := Encode(d, true)
		out3, err := ApplyEncoded(ow, a)
		if err != nil || !bytes.Equal(out3, b) {
			t.Logf("one-way encoded apply: %v", err)
			return false
		}
		// Invert applies backward.
		back, err := d.Invert().Apply(b)
		if err != nil || !bytes.Equal(back, a) {
			t.Logf("invert apply: %v", err)
			return false
		}
		return len(ow) <= len(enc)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	a := []byte("p\nq\nr\ns\n")
	b := []byte("p\nQQ\nr\nt\nu\n")
	d := DiffLines(a, b)
	for _, oneWay := range []bool{false, true} {
		enc := Encode(d, oneWay)
		dec, ow, err := Decode(enc)
		if err != nil {
			t.Fatalf("Decode(oneWay=%v): %v", oneWay, err)
		}
		if ow != oneWay {
			t.Errorf("decoded oneWay = %v, want %v", ow, oneWay)
		}
		if len(dec.Hunks) != len(d.Hunks) {
			t.Errorf("decoded %d hunks, want %d", len(dec.Hunks), len(d.Hunks))
		}
	}
}

func TestDecodeCorrupt(t *testing.T) {
	for _, enc := range [][]byte{
		{},
		{0xff},
		{2, 0}, // claims 2 hunks, truncated
	} {
		if _, _, err := Decode(enc); err == nil {
			t.Errorf("Decode(%v) succeeded on corrupt input", enc)
		}
	}
}

// normalize maps nil to empty for byte comparisons.
func normalize(b []byte) []byte {
	if b == nil {
		return []byte{}
	}
	return b
}

func TestCompressRoundTrip(t *testing.T) {
	f := func(data []byte) bool {
		out, err := Decompress(Compress(data))
		return err == nil && bytes.Equal(normalize(out), normalize(data))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestCompressShrinksRedundantInput(t *testing.T) {
	data := bytes.Repeat([]byte("versioned dataset row\n"), 200)
	if c := Compress(data); len(c) >= len(data)/4 {
		t.Errorf("Compress(%d bytes) = %d bytes, expected strong shrink", len(data), len(c))
	}
}

func TestDecompressCorrupt(t *testing.T) {
	if _, err := Decompress([]byte{0x00, 0x01, 0x02}); err == nil {
		t.Errorf("Decompress accepted garbage")
	}
}

// TestApplyReaderWindowReuse: a stage hands its source window back for
// reuse once it is finished, never while a stack still reads through it.
// A stack paused mid-stream — each stage past its last hunk, copying the
// tail through its window — must come out intact however many other
// stacks run to completion, recycling windows, in between.
func TestApplyReaderWindowReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	chain := [][]byte{randomLines(rng, 6000)} // ≈ 54 KB: windows fill
	var encs [][]byte
	for i := 0; i < 4; i++ {
		// Edit only the first lines, so the tail is a long copy.
		head := bytes.SplitAfterN(chain[i], []byte("\n"), 21)
		next := append(mutate(rng, bytes.Join(head[:20], nil)), head[20]...)
		encs = append(encs, Encode(DiffLines(chain[i], next), i%2 == 0))
		chain = append(chain, next)
	}
	stack := func() io.Reader {
		var r io.Reader = bytes.NewReader(chain[0])
		for _, enc := range encs {
			r = ApplyReader(enc, r)
		}
		return r
	}
	want := chain[len(chain)-1]
	paused := stack()
	head := make([]byte, 40<<10)
	if _, err := io.ReadFull(paused, head); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		got, err := io.ReadAll(stack())
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("stack %d: %v (equal=%v)", i, err, bytes.Equal(got, want))
		}
	}
	rest, err := io.ReadAll(paused)
	if err != nil {
		t.Fatal(err)
	}
	if got := append(head, rest...); !bytes.Equal(got, want) {
		t.Fatal("paused stack diverged after other stacks recycled their windows")
	}
}

// csvRows returns a header and n rows of a cols-column CSV payload.
func csvRows(rng *rand.Rand, n, cols int) []string {
	rows := make([]string, 0, n+1)
	var sb strings.Builder
	for c := 0; c < cols; c++ {
		if c > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "col%d", c)
	}
	rows = append(rows, sb.String())
	for r := 0; r < n; r++ {
		sb.Reset()
		for c := 0; c < cols; c++ {
			if c > 0 {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, "%d", rng.Intn(100000))
		}
		rows = append(rows, sb.String())
	}
	return rows
}

// TestApplyEncodedRightSized: a one-way delta that keeps a few lines of a
// large source is a few bytes long, so the output buffer sized for the
// whole source would be almost all spare room; the result must not keep
// it, or a cache that charges len(payload) would hold far more memory than
// it counts.
func TestApplyEncodedRightSized(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	rows := csvRows(rng, 600, 20)
	src, want := JoinLines(rows), JoinLines(append(rows[:3:3], rows[597:]...))
	enc := Encode(DiffLines(src, want), true)
	got, err := ApplyEncoded(enc, src)
	if err != nil || !bytes.Equal(got, want) {
		t.Fatalf("ApplyEncoded: %v (equal=%v)", err, bytes.Equal(got, want))
	}
	if len(enc) > 64 || cap(got) > 2*len(got) {
		t.Fatalf("%d-byte delta gave len %d, cap %d; want cap <= 2*len", len(enc), len(got), cap(got))
	}
}

// TestApplyEncodedAllocs: applying a one-way delta to a 60-row × 20-column
// CSV payload allocates exactly once — the output buffer — however the
// hunks fall: no line is split out, decoded into a string or re-joined.
func TestApplyEncodedAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	rows := csvRows(rng, 60, 20)
	next := append([]string(nil), rows...)
	next[5], next[30] = next[5]+",x", "edited,"+next[30]
	next = append(next[:45], next[47:]...)          // delete two rows
	next = append(next, "appended,1", "appended,2") // insert at the end
	src, want := JoinLines(rows), JoinLines(next)
	enc := Encode(DiffLines(src, want), true)
	if got, err := ApplyEncoded(enc, src); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("ApplyEncoded: %v (equal=%v)", err, bytes.Equal(got, want))
	}
	if n := testing.AllocsPerRun(100, func() {
		if _, err := ApplyEncoded(enc, src); err != nil {
			t.Fatal(err)
		}
	}); n != 1 {
		t.Fatalf("ApplyEncoded allocates %v times per call, want 1", n)
	}
}
