// Package storetest holds the shared store.Backend conformance suite.
// Every backend — filesystem, in-memory, fault-injecting wrapper, remote
// — must pass the identical battery: content-addressed round trips,
// streamed reads that agree with Get, idempotent puts, missing/malformed
// lookups, delete semantics, sorted listing, atomic metadata documents,
// append-only logs, and concurrent put/get. The suite
// lives in its own package (not in store's test files) so backend
// packages that depend on store, like store/remote, can import and run
// it without an import cycle.
package storetest

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"sync"
	"testing"

	"versiondb/internal/store"
)

// RunBackendConformance runs the full conformance battery against the
// backend returned by open. open is called once per subtest, so every
// property starts from a fresh, empty store.
func RunBackendConformance(t *testing.T, open func(t *testing.T) store.Backend) {
	t.Run("put get roundtrip", func(t *testing.T) {
		b := open(t)
		data := bytes.Repeat([]byte("conformance payload\n"), 1000)
		id, err := b.Put(data)
		if err != nil {
			t.Fatalf("Put: %v", err)
		}
		if id != store.HashBytes(data) {
			t.Errorf("Put returned %s, want content address", id)
		}
		if !b.Has(id) {
			t.Errorf("Has(%s) = false after Put", id)
		}
		got, err := b.Get(id)
		if err != nil {
			t.Fatalf("Get: %v", err)
		}
		if !bytes.Equal(got, data) {
			t.Errorf("Get = %d bytes differing from the %d put", len(got), len(data))
		}
		rc, err := b.GetStream(id)
		if err != nil {
			t.Fatalf("GetStream: %v", err)
		}
		defer rc.Close()
		if got, err := io.ReadAll(rc); err != nil || !bytes.Equal(got, data) {
			t.Errorf("GetStream = %d bytes, %v; want the %d put", len(got), err, len(data))
		}
	})
	t.Run("put idempotent", func(t *testing.T) {
		b := open(t)
		id1, err1 := b.Put([]byte("dup"))
		id2, err2 := b.Put([]byte("dup"))
		if err1 != nil || err2 != nil || id1 != id2 {
			t.Errorf("Put not idempotent: %v %v / %v %v", id1, err1, id2, err2)
		}
	})
	t.Run("missing and malformed", func(t *testing.T) {
		b := open(t)
		missing := store.HashBytes([]byte("never stored"))
		if _, err := b.Get(missing); !errors.Is(err, fs.ErrNotExist) {
			t.Errorf("Get on missing blob: err = %v, want fs.ErrNotExist", err)
		}
		if _, err := b.GetStream(missing); !errors.Is(err, fs.ErrNotExist) {
			t.Errorf("GetStream on missing blob: err = %v, want fs.ErrNotExist", err)
		}
		if _, err := b.Get("short"); err == nil || errors.Is(err, fs.ErrNotExist) {
			t.Errorf("Get on malformed id: err = %v, want a non-ErrNotExist error", err)
		}
		if _, err := b.GetStream("short"); err == nil || errors.Is(err, fs.ErrNotExist) {
			t.Errorf("GetStream on malformed id: err = %v, want a non-ErrNotExist error", err)
		}
		if b.Has("also-bad") {
			t.Errorf("Has on malformed id = true")
		}
	})
	t.Run("delete", func(t *testing.T) {
		b := open(t)
		id, _ := b.Put([]byte("doomed"))
		if err := b.Delete(id); err != nil {
			t.Fatalf("Delete: %v", err)
		}
		if b.Has(id) {
			t.Errorf("blob survives Delete")
		}
		if err := b.Delete(id); err != nil {
			t.Errorf("double Delete errored: %v", err)
		}
	})
	t.Run("list sorted", func(t *testing.T) {
		b := open(t)
		want := map[store.ID]bool{}
		for i := 0; i < 5; i++ {
			id, err := b.Put([]byte(fmt.Sprintf("blob %d", i)))
			if err != nil {
				t.Fatal(err)
			}
			want[id] = true
		}
		ids, err := b.List()
		if err != nil {
			t.Fatalf("List: %v", err)
		}
		if len(ids) != len(want) {
			t.Fatalf("List returned %d ids, want %d", len(ids), len(want))
		}
		for i, id := range ids {
			if !want[id] {
				t.Errorf("List returned unknown id %s", id)
			}
			if i > 0 && ids[i-1] >= id {
				t.Errorf("List not sorted at %d: %s ≥ %s", i, ids[i-1], id)
			}
		}
	})
	t.Run("meta roundtrip", func(t *testing.T) {
		b := open(t)
		if _, err := b.GetMeta("never.json"); !errors.Is(err, fs.ErrNotExist) {
			t.Errorf("GetMeta on missing name: err = %v, want fs.ErrNotExist", err)
		}
		if err := b.PutMeta("doc.json", []byte(`{"a":1}`)); err != nil {
			t.Fatalf("PutMeta: %v", err)
		}
		if err := b.PutMeta("doc.json", []byte(`{"a":2}`)); err != nil {
			t.Fatalf("PutMeta overwrite: %v", err)
		}
		got, err := b.GetMeta("doc.json")
		if err != nil || string(got) != `{"a":2}` {
			t.Errorf("GetMeta = %q, %v", got, err)
		}
	})
	t.Run("log append truncate reopen", func(t *testing.T) {
		b := open(t)
		d, err := b.OpenLog("conformance")
		step := func(what string, err error, want string) {
			t.Helper()
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			if got, err := d.ReadAll(); err != nil || string(got) != want {
				t.Fatalf("after %s: ReadAll = %q, %v; want %q", what, got, err, want)
			}
		}
		step("OpenLog", err, "")
		step("Append", d.Append([]byte("first,")), "first,")
		step("Append", d.Append([]byte("second")), "first,second")
		step("Truncate", d.Truncate(int64(len("first,"))), "first,")
		step("Append after Truncate", d.Append([]byte("again")), "first,again")
		if err := d.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		d, err = b.OpenLog("conformance")
		step("second OpenLog", err, "first,again")
		d.Close()
	})
	t.Run("concurrent put get", func(t *testing.T) {
		b := open(t)
		const workers = 8
		var wg sync.WaitGroup
		errs := make(chan error, workers*2)
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < 20; i++ {
					// Half the blobs collide across workers, exercising
					// idempotent concurrent Put of identical content.
					data := []byte(fmt.Sprintf("blob %d", (w%2)*100+i))
					id, err := b.Put(data)
					if err != nil {
						errs <- fmt.Errorf("Put: %w", err)
						return
					}
					got, err := b.Get(id)
					if err != nil {
						errs <- fmt.Errorf("Get: %w", err)
						return
					}
					if !bytes.Equal(got, data) {
						errs <- fmt.Errorf("roundtrip mismatch for %s", id)
						return
					}
				}
			}(w)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
	})
}
