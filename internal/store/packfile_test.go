package store

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"
)

func TestWriteOpenPackRoundTrip(t *testing.T) {
	dir := t.TempDir()
	blobs := map[ID][]byte{}
	for i := 0; i < 20; i++ {
		data := []byte(fmt.Sprintf("payload number %d with some body", i))
		blobs[HashBytes(data)] = data
	}
	path := filepath.Join(dir, "test.pack")
	if err := WritePack(path, blobs); err != nil {
		t.Fatalf("WritePack: %v", err)
	}
	p, err := OpenPack(path)
	if err != nil {
		t.Fatalf("OpenPack: %v", err)
	}
	if p.Len() != len(blobs) {
		t.Fatalf("pack has %d objects, want %d", p.Len(), len(blobs))
	}
	for id, want := range blobs {
		if !p.Has(id) {
			t.Errorf("pack missing %s", id[:8])
		}
		got, err := p.Get(id)
		if err != nil || !bytes.Equal(got, want) {
			t.Errorf("Get(%s): %q, %v", id[:8], got, err)
		}
	}
	if _, err := p.Get(HashBytes([]byte("absent"))); err == nil {
		t.Errorf("Get on absent id succeeded")
	}
	if len(p.IDs()) != len(blobs) {
		t.Errorf("IDs() returned %d", len(p.IDs()))
	}
}

func TestOpenPackRejectsGarbage(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.pack")
	if err := os.WriteFile(path, []byte("not a pack"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenPack(path); err == nil {
		t.Errorf("garbage pack opened")
	}
	if _, err := OpenPack(filepath.Join(dir, "missing.pack")); err == nil {
		t.Errorf("missing pack opened")
	}
}

func TestPackDetectsCorruption(t *testing.T) {
	dir := t.TempDir()
	data := []byte("pristine payload that will be flipped")
	id := HashBytes(data)
	path := filepath.Join(dir, "c.pack")
	if err := WritePack(path, map[ID][]byte{id: data}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-3] ^= 0xff // flip a payload byte
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	p, err := OpenPack(path)
	if err != nil {
		t.Fatalf("OpenPack: %v", err)
	}
	if _, err := p.Get(id); err == nil {
		t.Errorf("corrupted payload passed verification")
	}
}

func TestRepackMigratesLooseObjects(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var ids []ID
	var payloads [][]byte
	for i := 0; i < 15; i++ {
		data := []byte(fmt.Sprintf("object %d content ............", i))
		id, err := s.Put(data)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
		payloads = append(payloads, data)
	}
	packPath, err := s.Repack()
	if err != nil {
		t.Fatalf("Repack: %v", err)
	}
	if _, err := os.Stat(packPath); err != nil {
		t.Fatalf("pack file missing: %v", err)
	}
	// Loose copies are gone; reads fall through to the pack.
	for i, id := range ids {
		if _, err := os.Stat(s.path(id)); !os.IsNotExist(err) {
			t.Errorf("loose object %s survived repack", id[:8])
		}
		got, err := s.Get(id)
		if err != nil || !bytes.Equal(got, payloads[i]) {
			t.Errorf("Get(%s) after repack: %v", id[:8], err)
		}
		if !s.Has(id) {
			t.Errorf("Has(%s) false after repack", id[:8])
		}
	}
	// Put of an already-packed blob is a no-op.
	if _, err := s.Put(payloads[0]); err != nil {
		t.Errorf("Put of packed blob: %v", err)
	}
	if _, err := os.Stat(s.path(ids[0])); !os.IsNotExist(err) {
		t.Errorf("Put re-created a loose copy of a packed blob")
	}
	// Repack with nothing loose fails cleanly.
	if _, err := s.Repack(); err == nil {
		t.Errorf("empty repack succeeded")
	}
}

func TestRepackSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	data := []byte("persistent packed content")
	id, err := s.Put(data)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Repack(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	got, err := s2.Get(id)
	if err != nil || !bytes.Equal(got, data) {
		t.Errorf("Get after reopen: %v", err)
	}
	total, err := s2.TotalBytes()
	if err != nil || total <= 0 {
		t.Errorf("TotalBytes = %d, %v", total, err)
	}
}

func TestRepackedLayoutStillCheckouts(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	payloads := chainPayloads(rng, 6)
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	tr := randomStorageTree(rng, 6)
	l, err := BuildLayout(s, payloads, tr, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Repack(); err != nil {
		t.Fatal(err)
	}
	for v := range payloads {
		got, err := l.Checkout(v)
		if err != nil || !bytes.Equal(got, payloads[v]) {
			t.Errorf("Checkout(%d) after repack: %v", v, err)
		}
	}
}

func TestQuickPackRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		blobs := map[ID][]byte{}
		for i := 0; i < 1+rng.Intn(20); i++ {
			data := make([]byte, rng.Intn(500))
			rng.Read(data)
			blobs[HashBytes(data)] = data
		}
		dir, err := os.MkdirTemp("", "vdb-pack-*")
		if err != nil {
			return false
		}
		defer os.RemoveAll(dir)
		path := filepath.Join(dir, "q.pack")
		if err := WritePack(path, blobs); err != nil {
			return false
		}
		p, err := OpenPack(path)
		if err != nil {
			t.Logf("open: %v", err)
			return false
		}
		for id, want := range blobs {
			got, err := p.Get(id)
			if err != nil || !bytes.Equal(got, want) {
				return false
			}
		}
		return p.Len() == len(blobs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
