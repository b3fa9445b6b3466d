package delta

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

// frozenMyers is the differ as it stood before it became generic and
// scratch-backed: a full copy of v per round, no reuse. It is the oracle
// the production myers must agree with op for op, since every stored delta
// and every cost matrix depends on which shortest edit script is chosen.
func frozenMyers(a, b []string) []opKind {
	n, m := len(a), len(b)
	if n == 0 && m == 0 {
		return nil
	}
	maxD := n + m
	offset := maxD
	v := make([]int, 2*maxD+1)
	trace := make([][]int, 0, maxD+1)
	var dFound = -1
outer:
	for d := 0; d <= maxD; d++ {
		vc := make([]int, 2*maxD+1)
		copy(vc, v)
		trace = append(trace, vc)
		for k := -d; k <= d; k += 2 {
			var x int
			if k == -d || (k != d && v[k-1+offset] < v[k+1+offset]) {
				x = v[k+1+offset]
			} else {
				x = v[k-1+offset] + 1
			}
			y := x - k
			for x < n && y < m && a[x] == b[y] {
				x++
				y++
			}
			v[k+offset] = x
			if x >= n && y >= m {
				dFound = d
				break outer
			}
		}
	}
	var revOps []opKind
	x, y := n, m
	for d := dFound; d > 0; d-- {
		vprev := trace[d]
		k := x - y
		var prevK int
		if k == -d || (k != d && vprev[k-1+offset] < vprev[k+1+offset]) {
			prevK = k + 1
		} else {
			prevK = k - 1
		}
		prevX := vprev[prevK+offset]
		prevY := prevX - prevK
		for x > prevX && y > prevY {
			revOps = append(revOps, opKeep)
			x--
			y--
		}
		if x == prevX {
			revOps = append(revOps, opIns)
			y--
		} else {
			revOps = append(revOps, opDel)
			x--
		}
	}
	for x > 0 && y > 0 {
		revOps = append(revOps, opKeep)
		x--
		y--
	}
	for x > 0 {
		revOps = append(revOps, opDel)
		x--
	}
	for y > 0 {
		revOps = append(revOps, opIns)
		y--
	}
	for i, j := 0, len(revOps)-1; i < j; i, j = i+1, j-1 {
		revOps[i], revOps[j] = revOps[j], revOps[i]
	}
	return revOps
}

// sameEncodings reports whether d encodes exactly as want, one-way and
// two-way, forward and inverted.
func sameEncodings(d, want *LineDelta) bool {
	for _, oneWay := range []bool{false, true} {
		if !bytes.Equal(Encode(d, oneWay), Encode(want, oneWay)) ||
			!bytes.Equal(Encode(d.Invert(), oneWay), Encode(want.Invert(), oneWay)) {
			return false
		}
	}
	return true
}

// checkLineSizes asserts, for every ordered pair of payloads, that the
// LineTable kernel sizes the one-way encodings of the frozen differ's delta
// and of its inverse to the byte, that DiffLines' delta encodes exactly as
// the frozen differ's, and that the differ — over strings and over line
// IDs alike, with one Scratch reused throughout — picks exactly the edit
// script the frozen differ picks. Sizes and DiffLines share a shortcut, so
// each is held to the frozen differ rather than to the other.
func checkLineSizes(t *testing.T, payloads ...[]byte) {
	t.Helper()
	table := NewLineTable(payloads)
	var s Scratch
	for i, a := range payloads {
		for j, b := range payloads {
			al, bl := SplitLines(a), SplitLines(b)
			frozen := frozenMyers(al, bl)
			ref := sesToHunks(al, bl, frozen)
			wantFwd := len(Encode(ref, true))
			wantBwd := len(Encode(ref.Invert(), true))
			fwd, bwd := table.Sizes(i, j, &s)
			if fwd != wantFwd || bwd != wantBwd {
				t.Fatalf("Sizes(%d, %d) = (%d, %d), want (%d, %d)", i, j, fwd, bwd, wantFwd, wantBwd)
			}
			if d := DiffLines(a, b); !sameEncodings(d, ref) {
				t.Fatalf("DiffLines(payload %d, payload %d) = %+v, frozen differ gives %+v", i, j, d, ref)
			}
			want := fmt.Sprint(frozen)
			if got := fmt.Sprint(myers(al, bl, &s)); got != want {
				t.Fatalf("myers(payload %d, payload %d) = %s, frozen differ gives %s", i, j, got, want)
			}
			if got := fmt.Sprint(myers(table.lines[i], table.lines[j], &s)); got != want {
				t.Fatalf("myers over line IDs (payload %d, payload %d) = %s, frozen differ gives %s", i, j, got, want)
			}
		}
	}
}

func FuzzLineSizes(f *testing.F) {
	f.Add([]byte(""), []byte(""), []byte(""))
	f.Add([]byte("a\nb\nc\n"), []byte("a\nx\nc\n"), []byte("c\nb\na\n"))
	f.Add([]byte("id,val\n1,10\n2,20\n"), []byte("id,val,extra\n1,10,x\n2,20,y\n"), []byte("id\n1\n2\n"))
	f.Add([]byte("no trailing newline"), []byte("no trailing newline\n"), []byte("\n\n\n"))
	f.Add([]byte("a\n\nb\n"), []byte("\n"), []byte("a\nb"))
	f.Add([]byte{0x00, 0xff, 0x0a, 0x80}, []byte{0xff, 0x00}, []byte{0x0a})
	// Shared headers and then nothing else in common, and the suffix shape
	// where only the full differ finds the two hunks.
	f.Add([]byte("c0,c1\n1,2\n3,4\n"), []byte("c0,c1\n5,6\n7,8\n9,0\n"), []byte("c0,c1\n"))
	f.Add([]byte("h\ng\na\nh\n"), []byte("h\ng\nb\nc"), []byte("h\ng\n"))
	f.Add([]byte("x\ns\n"), []byte("s\ny\ns\n"), []byte("h\nx\ns\n"))
	f.Fuzz(func(t *testing.T, a, b, c []byte) {
		checkLineSizes(t, a, b, c)
	})
}

// TestLineSizesLongLinesAndFarPositions covers what short fuzz inputs
// rarely reach: multi-byte uvarint headers (lines of 128+ bytes, hunks
// past line 127, 128+ lines in one hunk) and a payload set whose lines
// repeat across payloads.
func TestLineSizesLongLinesAndFarPositions(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	line := func(n int) string {
		b := make([]byte, n)
		for i := range b {
			b[i] = 'a' + byte(rng.Intn(3))
		}
		return string(b)
	}
	var base []string
	for i := 0; i < 300; i++ {
		base = append(base, line(1+rng.Intn(200)))
	}
	join := func(ls []string) []byte { return JoinLines(ls) }
	edited := append([]string(nil), base...)
	for i := 150; i < 290; i++ {
		edited[i] = line(130 + rng.Intn(70))
	}
	shuffled := append([]string(nil), base...)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	checkLineSizes(t, join(base), join(edited), join(shuffled), join(base[:140]), nil)
}

// TestDiffLinesReusesScratch checks the pooled path: diffs of very
// different shapes back to back on the same goroutine still agree with the
// frozen differ (stale scratch contents must never leak into a result).
func TestDiffLinesReusesScratch(t *testing.T) {
	inputs := [][2]string{
		{"a\nb\nc\nd\ne\nf\ng\n", "g\nf\ne\nd\nc\nb\na\n"},
		{"x\n", "x\n"},
		{"1\n2\n3\n", "4\n5\n6\n7\n8\n9\n"},
		{"a\nb\n", "b\n"},
	}
	for round := 0; round < 3; round++ {
		for _, in := range inputs {
			a, b := []byte(in[0]), []byte(in[1])
			want := sesToHunks(SplitLines(a), SplitLines(b), frozenMyers(SplitLines(a), SplitLines(b)))
			if got := DiffLines(a, b); !deltasEqual(got, want, true) {
				t.Fatalf("round %d DiffLines(%q, %q) = %+v, want %+v", round, a, b, got, want)
			}
			if got, _ := DiffLines(a, b).Apply(a); !bytes.Equal(got, b) {
				t.Fatalf("round %d apply: got %q, want %q", round, got, b)
			}
		}
	}
}

// TestLineSizesDisjointPairs checks the two shortcuts for pairs that share
// no line past their common prefix against the script Myers finds, on 3,000
// random pairs that share nothing and 1,200 that share a 1–3-line prefix
// and then nothing: empty sides and empty remainders, identical pairs,
// prefix lines repeated inside a remainder, duplicate and empty lines, no
// trailing newline, and lines and line counts long enough for multi-byte
// uvarints. The Myers script must be the one hunk at the prefix's end (none
// for an identical pair), Sizes must match its encoded sizes, and DiffLines'
// delta must encode, both ways and inverted, byte for byte as that script.
// One Scratch serves five tables, and its generation counter wraps mid-way.
// A fixed pair pins why only a common prefix may be stripped: for x, s
// against s, y, s Myers keeps s against b's first line and gives two hunks,
// where stripping the common suffix s too would leave x against s, y — no
// shared line, so one hunk and different sizes.
func TestLineSizesDisjointPairs(t *testing.T) {
	a, b := []byte("x\ns\n"), []byte("s\ny\ns\n")
	want := &LineDelta{Hunks: []Hunk{{SrcPos: 0, Del: []string{"x"}}, {SrcPos: 2, Ins: []string{"y", "s"}}}}
	if d := DiffLines(a, b); !deltasEqual(d, want, true) {
		t.Fatalf("DiffLines(%q, %q) = %+v, want %+v", a, b, d, want)
	}
	var s Scratch
	if fwd, bwd := NewLineTable([][]byte{a, b}).Sizes(0, 1, &s); fwd != len(Encode(want, true)) || bwd != len(Encode(want.Invert(), true)) {
		t.Fatalf("Sizes(%q, %q) = (%d, %d), want the sizes of %+v", a, b, fwd, bwd, want)
	}

	rng := rand.New(rand.NewSource(3))
	gen := func(prefix string) []byte {
		if rng.Intn(10) == 0 {
			return nil
		}
		var lines []string
		for n := 1 + rng.Intn(200); len(lines) < n; {
			line := []byte(prefix)
			for n := rng.Intn(160); n > 0; n-- {
				line = append(line, "ab,0"[rng.Intn(4)])
			}
			lines = append(lines, string(line))
			if rng.Intn(8) == 0 {
				lines = append(lines, lines[rng.Intn(len(lines))])
			}
		}
		p := JoinLines(lines)
		if rng.Intn(4) == 0 {
			p = p[:len(p)-1]
		}
		return p
	}
	// header returns 1–3 shared leading lines for a pair; one in three is a
	// line of either side, so it recurs inside that side's remainder.
	header := func(a, b []byte) []string {
		var h []string
		for n := 1 + rng.Intn(3); len(h) < n; {
			from := SplitLines([][]byte{a, b}[rng.Intn(2)])
			if len(from) > 0 && rng.Intn(3) == 0 {
				h = append(h, from[rng.Intn(len(from))])
			} else {
				h = append(h, fmt.Sprintf("H%d", rng.Intn(1000)))
			}
		}
		return h
	}
	check := func(round int, table *LineTable, i, j int, a, b []byte, prefix int) {
		t.Helper()
		al, bl := SplitLines(a), SplitLines(b)
		var ms Scratch
		viaMyers := sesToHunks(al, bl, myers(al, bl, &ms))
		if bytes.Equal(a, b) {
			if len(viaMyers.Hunks) != 0 {
				t.Fatalf("round %d: identical pair (%d, %d) gives %d hunks", round, i, j, len(viaMyers.Hunks))
			}
		} else if len(viaMyers.Hunks) != 1 || viaMyers.Hunks[0].SrcPos != prefix {
			t.Fatalf("round %d: pair (%d, %d) with a %d-line prefix gives hunks %+v", round, i, j, prefix, viaMyers.Hunks)
		}
		wantFwd, wantBwd := len(Encode(viaMyers, true)), len(Encode(viaMyers.Invert(), true))
		if fwd, bwd := table.Sizes(i, j, &s); fwd != wantFwd || bwd != wantBwd {
			t.Fatalf("round %d: Sizes(%d, %d) = (%d, %d), want (%d, %d)", round, i, j, fwd, bwd, wantFwd, wantBwd)
		}
		if !sameEncodings(DiffLines(a, b), viaMyers) {
			t.Fatalf("round %d: DiffLines(%d, %d) encodes unlike the Myers script", round, i, j)
		}
	}
	for round := 0; round < 2; round++ {
		// The first 60 payloads' lines hold no 'B' and the last 60's all
		// start with one, so a pair across the halves shares no line.
		var payloads [][]byte
		for i := 0; i < 60; i++ {
			payloads = append(payloads, gen(""))
		}
		for i := 0; i < 60; i++ {
			payloads = append(payloads, gen("B"))
		}
		table := NewLineTable(payloads)
		for k := 0; k < 1500; k++ {
			i, j := rng.Intn(60), 60+rng.Intn(60)
			if k%2 == 1 {
				i, j = j, i
			}
			if k == 700 {
				s.gen = ^uint32(0)
			}
			check(round, table, i, j, payloads[i], payloads[j], 0)
		}
		// Pairs across the halves under one shared header (identical ones
		// one time in ten), as payloads 2k and 2k+1 of a second table.
		var shared [][]byte
		var prefixes []int
		for k := 0; k < 600; k++ {
			i, j := rng.Intn(60), 60+rng.Intn(60)
			if k%2 == 1 {
				i, j = j, i
			}
			if rng.Intn(10) == 0 {
				j = i
			}
			h := header(payloads[i], payloads[j])
			shared = append(shared,
				append(JoinLines(h), payloads[i]...),
				append(JoinLines(h), payloads[j]...))
			prefixes = append(prefixes, len(h))
		}
		table = NewLineTable(shared)
		for k, p := range prefixes {
			check(round, table, 2*k, 2*k+1, shared[2*k], shared[2*k+1], p)
			check(round, table, 2*k+1, 2*k, shared[2*k+1], shared[2*k], p)
		}
	}
}

// TestDiffLinesDisjointAllocs: differencing an 8,192-line payload against a
// one-line one that shares no line with it allocates well under 1 MiB. The
// Myers trace for that edit distance would hold ~33.6 M ints (~268 MB).
func TestDiffLinesDisjointAllocs(t *testing.T) {
	var lines []string
	for i := 0; i < 8192; i++ {
		lines = append(lines, fmt.Sprintf("row-%d,%d", i, i*7))
	}
	a, b := []byte("header\n"), JoinLines(lines)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	enc := Encode(DiffLines(a, b), true)
	runtime.ReadMemStats(&after)
	if got, err := ApplyEncoded(enc, a); err != nil || !bytes.Equal(got, b) {
		t.Fatalf("ApplyEncoded: %v (equal=%v)", err, bytes.Equal(got, b))
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Fatalf("DiffLines+Encode allocated %d bytes, want < 1 MiB", alloc)
	}
}

// TestDiffLinesSharedHeaderAllocs: two 4,096-row CSVs (~95 KB each) that
// share only their header are differenced and sized in linear time and
// memory. DiffLines and Encode allocate under 2 MiB where Myers' trace
// alone would take ~1.4 GiB, the delta round-trips, Sizes with a cold
// Scratch allocates under 1 MiB and with a warm one nothing.
func TestDiffLinesSharedHeaderAllocs(t *testing.T) {
	a := JoinLines(csvRows(rand.New(rand.NewSource(5)), 4096, 4))
	b := JoinLines(csvRows(rand.New(rand.NewSource(6)), 4096, 4))
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	enc := Encode(DiffLines(a, b), true)
	runtime.ReadMemStats(&after)
	if got, err := ApplyEncoded(enc, a); err != nil || !bytes.Equal(got, b) {
		t.Fatalf("ApplyEncoded: %v (equal=%v)", err, bytes.Equal(got, b))
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 2<<20 {
		t.Fatalf("DiffLines+Encode allocated %d bytes, want < 2 MiB", alloc)
	}
	table := NewLineTable([][]byte{a, b})
	var s Scratch
	runtime.ReadMemStats(&before)
	fwd, _ := table.Sizes(0, 1, &s)
	runtime.ReadMemStats(&after)
	if fwd != len(enc) {
		t.Fatalf("Sizes forward = %d, want %d", fwd, len(enc))
	}
	// A cold Scratch grows only its line stamps, 4 bytes per distinct line.
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Fatalf("Sizes with a cold Scratch allocated %d bytes, want < 1 MiB", alloc)
	}
	if n := testing.AllocsPerRun(20, func() { table.Sizes(0, 1, &s) }); n != 0 {
		t.Fatalf("Sizes with a warm Scratch allocates %v times per call, want 0", n)
	}
}
