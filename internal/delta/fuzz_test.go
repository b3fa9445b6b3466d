package delta

// The fuzzer for the line-delta codec asserts two properties:
//
//  1. Round trip: encoding a delta computed between two payloads and
//     applying it to the source reproduces the target (its canonical line
//     form — SplitLines/JoinLines normalize a
//     missing trailing newline, which is the codec's documented contract).
//  2. Robustness: decoding/applying arbitrary bytes returns an error —
//     it never panics and never allocates unboundedly from a hostile
//     header.
//
// Run continuously with `go test -fuzz=FuzzLineDiffRoundTrip`; CI runs a
// short smoke pass.

import (
	"bytes"
	"io"
	"testing"
	"testing/iotest"
)

// matchesReference asserts that ApplyEncoded and ApplyReader each agree
// with the string reference form, Decode followed by LineDelta.apply: the
// same success or failure, the same bytes, and for the buffered path the
// same nil for an empty result. The robustness half of the contract rides
// along — a corrupt enc or src must error, never panic or hang.
func matchesReference(t *testing.T, enc, src []byte) {
	t.Helper()
	var want []byte
	d, oneWay, wantErr := Decode(enc)
	if wantErr == nil {
		want, wantErr = d.apply(src, oneWay)
	}
	got, err := ApplyEncoded(enc, src)
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("ApplyEncoded(%q, %q): err %v, reference err %v", enc, src, err, wantErr)
	}
	if err == nil && (!bytes.Equal(got, want) || (got == nil) != (want == nil)) {
		t.Fatalf("ApplyEncoded(%q, %q) = %q, reference gives %q", enc, src, got, want)
	}
	for _, name := range []string{"plain", "one-byte"} {
		r := ApplyReader(enc, bytes.NewReader(src))
		if name == "one-byte" {
			r = iotest.OneByteReader(ApplyReader(enc, iotest.OneByteReader(bytes.NewReader(src))))
		}
		got, err := io.ReadAll(r)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("ApplyReader(%q, %q) %s: err %v, reference err %v", enc, src, name, err, wantErr)
		}
		if err == nil && !bytes.Equal(got, want) {
			t.Fatalf("ApplyReader(%q, %q) %s = %q, reference gives %q", enc, src, name, got, want)
		}
	}
}

// canonicalLines is the line codec's normal form: what any apply of a
// line delta reconstructs.
func canonicalLines(b []byte) []byte { return JoinLines(SplitLines(b)) }

// deltasEqual compares two LineDeltas hunk by hunk, treating nil and empty
// slices as equal (Decode materializes empty slices where the differ may
// leave nil). withDel=false compares Del counts only, the information a
// one-way encoding preserves.
func deltasEqual(a, b *LineDelta, withDel bool) bool {
	if len(a.Hunks) != len(b.Hunks) {
		return false
	}
	for i := range a.Hunks {
		ha, hb := a.Hunks[i], b.Hunks[i]
		if ha.SrcPos != hb.SrcPos || len(ha.Del) != len(hb.Del) || len(ha.Ins) != len(hb.Ins) {
			return false
		}
		for j := range ha.Ins {
			if ha.Ins[j] != hb.Ins[j] {
				return false
			}
		}
		if withDel {
			for j := range ha.Del {
				if ha.Del[j] != hb.Del[j] {
					return false
				}
			}
		}
	}
	return true
}

func FuzzLineDiffRoundTrip(f *testing.F) {
	f.Add([]byte(""), []byte(""))
	f.Add([]byte("a\nb\nc\n"), []byte("a\nx\nc\n"))
	f.Add([]byte("id,val\n1,10\n2,20\n"), []byte("id,val\n1,10\n2,21\n3,30\n"))
	f.Add([]byte("only\n"), []byte(""))
	f.Add([]byte(""), []byte("fresh\nlines\n"))
	f.Add([]byte("no trailing newline"), []byte("no trailing newline either"))
	f.Add([]byte("\n\n\n"), []byte("\n"))
	f.Add([]byte{0x00, 0xff, 0x0a, 0x80}, []byte{0xff, 0x00})
	f.Add([]byte("c0,c1\n1,2\n3,4\n"), []byte("c0,c1\n5,6\n7,8\n9,0\n"))
	f.Add([]byte("h\ng\na\nh\n"), []byte("h\ng\n"))
	f.Add([]byte("x\ns\n"), []byte("s\ny\ns\n"))
	f.Fuzz(func(t *testing.T, a, b []byte) {
		d := DiffLines(a, b)
		wantB := canonicalLines(b)

		// Two-way: encode → decode is the identity on the delta, and the
		// decoded delta still applies.
		enc2 := Encode(d, false)
		d2, oneWay, err := Decode(enc2)
		if err != nil {
			t.Fatalf("Decode(two-way): %v", err)
		}
		if oneWay {
			t.Fatal("two-way encoding decoded as one-way")
		}
		if !deltasEqual(d, d2, true) {
			t.Fatalf("two-way decode is not the identity:\n got %+v\nwant %+v", d2, d)
		}
		got, err := ApplyEncoded(enc2, a)
		if err != nil {
			t.Fatalf("ApplyEncoded(two-way): %v", err)
		}
		if !bytes.Equal(got, wantB) {
			t.Fatalf("two-way apply: got %q, want %q", got, wantB)
		}

		// One-way: hunk structure (with Del counts) survives, and apply
		// reconstructs the target.
		enc1 := Encode(d, true)
		d1, oneWay, err := Decode(enc1)
		if err != nil {
			t.Fatalf("Decode(one-way): %v", err)
		}
		if !oneWay {
			t.Fatal("one-way encoding decoded as two-way")
		}
		if !deltasEqual(d, d1, false) {
			t.Fatalf("one-way decode lost hunk structure:\n got %+v\nwant %+v", d1, d)
		}
		got, err = ApplyEncoded(enc1, a)
		if err != nil {
			t.Fatalf("ApplyEncoded(one-way): %v", err)
		}
		if !bytes.Equal(got, wantB) {
			t.Fatalf("one-way apply: got %q, want %q", got, wantB)
		}

		// Both in-place paths must agree with the reference form byte for
		// byte, for both encodings.
		matchesReference(t, enc2, a)
		matchesReference(t, enc1, a)

		// Robustness: the raw inputs are (almost certainly) not valid
		// encodings; applying them must error or succeed as the reference
		// does, but never panic — on the buffered and the reader path alike.
		matchesReference(t, a, b)
		matchesReference(t, b, a)
	})
}

// TestOneWayDecodeCannotUpgradeToTwoWay: re-encoding a one-way-decoded
// delta (count-only hunks) as two-way must fail loudly at apply time —
// the deleted content is gone, and silently skipping deletions would
// corrupt data.
func TestOneWayDecodeCannotUpgradeToTwoWay(t *testing.T) {
	a := []byte("a\nb\nc\n")
	b := []byte("a\nc\n") // deletes line "b"
	d := DiffLines(a, b)
	d1, oneWay, err := Decode(Encode(d, true))
	if err != nil || !oneWay {
		t.Fatalf("Decode(one-way): %v (oneWay=%v)", err, oneWay)
	}
	reenc := Encode(d1, false)
	if _, err := ApplyEncoded(reenc, a); err == nil {
		t.Fatal("two-way re-encode of a count-only delta applied silently; want a context-check error")
	}
}

// FuzzApplyEncodedMatchesReference feeds arbitrary encodings and sources to
// ApplyEncoded and ApplyReader and holds each to the string reference form
// (matchesReference). Valid encodings of real edits are seeded next to
// corrupt ones, applied to their own source and to sources with and
// without a trailing newline and with empty lines, so the fuzzer starts
// from every check the kernel makes: truncation, counts beyond the bytes,
// out-of-order hunks, deletion past the end and the context check.
func FuzzApplyEncodedMatchesReference(f *testing.F) {
	sources := [][]byte{
		nil,
		[]byte("a\nb\nc\n"),
		[]byte("a\nb\nc"),
		[]byte("\n\nx\n\n"),
		[]byte("x\n\ny"),
	}
	encs := [][]byte{{}, {0xff}, {2, 0}} // TestDecodeCorrupt's inputs
	for _, c := range applyCases {
		d := DiffLines([]byte(c[0]), []byte(c[1]))
		encs = append(encs, Encode(d, false), Encode(d, true))
		f.Add(Encode(d, false), []byte(c[0]))
		f.Add(Encode(d, true), []byte(c[0]))
	}
	for _, enc := range encs {
		for _, src := range sources {
			f.Add(enc, src)
		}
	}
	f.Fuzz(func(t *testing.T, enc, src []byte) {
		matchesReference(t, enc, src)
	})
}
