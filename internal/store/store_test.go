package store

import (
	"bytes"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"

	"versiondb/internal/graph"
)

func newStore(t *testing.T) *ObjectStore {
	t.Helper()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return s
}

func TestPutGetRoundTrip(t *testing.T) {
	s := newStore(t)
	data := []byte("hello dataset world")
	id, err := s.Put(data)
	if err != nil {
		t.Fatalf("Put: %v", err)
	}
	if !s.Has(id) {
		t.Errorf("Has(%s) = false", id)
	}
	got, err := s.Get(id)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if !bytes.Equal(got, data) {
		t.Errorf("Get = %q", got)
	}
}

func TestPutIdempotent(t *testing.T) {
	s := newStore(t)
	id1, _ := s.Put([]byte("x"))
	id2, err := s.Put([]byte("x"))
	if err != nil || id1 != id2 {
		t.Errorf("Put not idempotent: %v %v %v", id1, id2, err)
	}
}

func TestGetMissingAndMalformed(t *testing.T) {
	s := newStore(t)
	if _, err := s.Get(HashBytes([]byte("never stored"))); err == nil {
		t.Errorf("Get on missing blob succeeded")
	}
	if _, err := s.Get("short"); err == nil {
		t.Errorf("Get on malformed id succeeded")
	}
	if s.Has("also-bad") {
		t.Errorf("Has on malformed id true")
	}
}

func TestGetDetectsCorruption(t *testing.T) {
	s := newStore(t)
	id, _ := s.Put([]byte("pristine content"))
	// Corrupt the file on disk.
	p := filepath.Join(s.Dir(), "objects", string(id[:2]), string(id[2:]))
	if err := os.WriteFile(p, []byte("tampered"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(id); err == nil {
		t.Errorf("corrupted blob passed verification")
	}
}

func TestDeleteAndTotal(t *testing.T) {
	s := newStore(t)
	id, _ := s.Put([]byte("abcdef"))
	total, err := s.TotalBytes()
	if err != nil || total != 6 {
		t.Errorf("TotalBytes = %d, %v", total, err)
	}
	if err := s.Delete(id); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if s.Has(id) {
		t.Errorf("blob survives Delete")
	}
	if err := s.Delete(id); err != nil {
		t.Errorf("double Delete errored: %v", err)
	}
}

// chainPayloads builds versions where each differs from the previous by a
// few lines.
func chainPayloads(rng *rand.Rand, n int) [][]byte {
	out := make([][]byte, n)
	var lines []string
	for i := 0; i < 30; i++ {
		lines = append(lines, randLine(rng))
	}
	for v := 0; v < n; v++ {
		if v > 0 {
			// mutate a couple of lines
			for k := 0; k < 2; k++ {
				lines[rng.Intn(len(lines))] = randLine(rng)
			}
			lines = append(lines, randLine(rng))
		}
		var buf bytes.Buffer
		for _, l := range lines {
			buf.WriteString(l)
			buf.WriteByte('\n')
		}
		out[v] = append([]byte(nil), buf.Bytes()...)
	}
	return out
}

func randLine(rng *rand.Rand) string {
	const chars = "abcdefghij0123456789,"
	b := make([]byte, 12+rng.Intn(20))
	for i := range b {
		b[i] = chars[rng.Intn(len(chars))]
	}
	return string(b)
}

// randomStorageTree builds a random valid tree over n versions + root.
func randomStorageTree(rng *rand.Rand, n int) *graph.Tree {
	tr := graph.NewTree(n+1, 0)
	for v := 1; v <= n; v++ {
		p := rng.Intn(v) // any earlier vertex, 0 = materialize
		tr.SetEdge(graph.Edge{From: p, To: v, Storage: 1, Recreate: 1})
	}
	return tr
}

func TestLayoutCheckoutMatchesPayloads(t *testing.T) {
	f := func(seed int64, compress bool) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(12)
		payloads := chainPayloads(rng, n)
		dir, err := os.MkdirTemp("", "vdb-layout-*")
		if err != nil {
			return false
		}
		defer os.RemoveAll(dir)
		s, err := Open(dir)
		if err != nil {
			return false
		}
		tr := randomStorageTree(rng, n)
		l, err := BuildLayout(s, payloads, tr, compress, nil)
		if err != nil {
			t.Logf("BuildLayout: %v", err)
			return false
		}
		for v := 0; v < n; v++ {
			got, err := l.Checkout(v)
			if err != nil {
				t.Logf("Checkout(%d): %v", v, err)
				return false
			}
			if !bytes.Equal(got, payloads[v]) {
				t.Logf("Checkout(%d) mismatch", v)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestLayoutStats(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	payloads := chainPayloads(rng, 5)
	s := newStore(t)
	tr := graph.NewTree(6, 0)
	tr.SetEdge(graph.Edge{From: 0, To: 1})
	tr.SetEdge(graph.Edge{From: 1, To: 2})
	tr.SetEdge(graph.Edge{From: 2, To: 3})
	tr.SetEdge(graph.Edge{From: 0, To: 4})
	tr.SetEdge(graph.Edge{From: 4, To: 5})
	l, err := BuildLayout(s, payloads, tr, false, nil)
	if err != nil {
		t.Fatalf("BuildLayout: %v", err)
	}
	if got := l.NumMaterialized(); got != 2 {
		t.Errorf("NumMaterialized = %d, want 2", got)
	}
	_, hops := l.ChainCosts()
	if hops[2] != 2 {
		t.Errorf("chain length of 2 = %d, want 2", hops[2])
	}
	if hops[0] != 0 {
		t.Errorf("chain length of 0 = %d, want 0", hops[0])
	}
	if l.StoredBytes() <= 0 {
		t.Errorf("StoredBytes = %d", l.StoredBytes())
	}
	// Delta layout must be smaller than storing all versions whole.
	var naive int64
	for _, p := range payloads {
		naive += int64(len(p))
	}
	if l.StoredBytes() >= naive {
		t.Errorf("delta layout %d not smaller than naive %d", l.StoredBytes(), naive)
	}
}

func TestBuildLayoutValidation(t *testing.T) {
	s := newStore(t)
	payloads := [][]byte{[]byte("a\n")}
	if _, err := BuildLayout(s, payloads, graph.NewTree(5, 0), false, nil); err == nil {
		t.Errorf("mismatched tree size accepted")
	}
	bad := graph.NewTree(2, 0) // vertex 1 unattached
	if _, err := BuildLayout(s, payloads, bad, false, nil); err == nil {
		t.Errorf("invalid tree accepted")
	}
}

// TestBuildLayoutRefusesDeltaIntoUnterminatedPayload: a line delta
// rebuilds its target with a trailing newline, so BuildLayout must refuse
// to store one into a payload that lacks it — materializing it is fine.
func TestBuildLayoutRefusesDeltaIntoUnterminatedPayload(t *testing.T) {
	s := NewMemStore()
	payloads := [][]byte{[]byte("a\nb\n"), []byte("a\nb\nc")}
	chained := graph.NewTree(3, 0)
	chained.SetEdge(graph.Edge{From: 0, To: 1})
	chained.SetEdge(graph.Edge{From: 1, To: 2})
	if _, err := BuildLayout(s, payloads, chained, false, nil); err == nil {
		t.Fatal("BuildLayout stored a line delta into a payload without a trailing newline")
	}
	flat := graph.NewTree(3, 0)
	flat.SetEdge(graph.Edge{From: 0, To: 1})
	flat.SetEdge(graph.Edge{From: 0, To: 2})
	l, err := BuildLayout(s, payloads, flat, false, nil)
	if err != nil {
		t.Fatalf("BuildLayout(materialized): %v", err)
	}
	if got, err := l.Checkout(1); err != nil || !bytes.Equal(got, payloads[1]) {
		t.Fatalf("Checkout(1) = %q, %v; want %q", got, err, payloads[1])
	}
}

func TestCheckoutOutOfRange(t *testing.T) {
	s := newStore(t)
	tr := graph.NewTree(1, 0)
	l, err := BuildLayout(s, nil, tr, false, nil)
	if err != nil {
		t.Fatalf("empty layout: %v", err)
	}
	if _, err := l.Checkout(0); err == nil {
		t.Errorf("Checkout on empty layout succeeded")
	}
}
