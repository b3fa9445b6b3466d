package remote

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"io/fs"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"

	"versiondb/internal/store"
)

// requestLog records every request an object server answers, as
// "METHOD key", in arrival order.
type requestLog struct {
	mu   sync.Mutex
	reqs []string
}

func (l *requestLog) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		l.mu.Lock()
		l.reqs = append(l.reqs, r.Method+" "+strings.TrimPrefix(r.URL.Path, "/o/"))
		l.mu.Unlock()
		h.ServeHTTP(w, r)
	})
}

// take returns the requests recorded since the last take.
func (l *requestLog) take() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	reqs := l.reqs
	l.reqs = nil
	return reqs
}

// newLoggedServer starts srv behind a request log. Its clients neither
// hedge nor retry, so every request they make is one the log expects.
func newLoggedServer(t *testing.T, srv *Server) (*requestLog, func(cacheBytes int64) *Store) {
	t.Helper()
	log := &requestLog{}
	ts := httptest.NewServer(log.wrap(srv.Handler()))
	t.Cleanup(ts.Close)
	return log, func(cacheBytes int64) *Store {
		return New(ts.URL, Options{HTTPClient: ts.Client(), HedgeAfter: -1, Retries: -1, CacheBytes: cacheBytes})
	}
}

// multiChunkPayload returns bytes the chunker cuts into at least two
// chunks, and those chunks.
func multiChunkPayload(t testing.TB) ([]byte, [][]byte) {
	t.Helper()
	data := make([]byte, 40<<10)
	rand.New(rand.NewSource(5)).Read(data)
	chunks := Split(data, DefaultChunkerParams)
	if len(chunks) < 2 {
		t.Fatalf("multi-chunk payload split into %d chunk(s)", len(chunks))
	}
	return data, chunks
}

// TestOneObjectRequests pins the requests each form costs. A fresh
// one-chunk blob is written with a HEAD and a PUT and read cold with one
// GET; a multi-chunk blob makes the requests it always made: a HEAD of
// its manifest, a HEAD and a PUT per chunk, the manifest's PUT, and a
// cold read of the manifest and then of each chunk. A warm read of either
// makes none.
func TestOneObjectRequests(t *testing.T) {
	log, client := newLoggedServer(t, NewServer())
	b := func(data []byte) string { return blobPrefix + string(store.HashBytes(data)) }
	c := func(chunk []byte) string { return chunkPrefix + string(store.HashBytes(chunk)) }
	one := []byte("a,b\n1,2\none chunk of a commit's delta\n")
	multi, chunks := multiChunkPayload(t)
	cases := []struct {
		name             string
		data             []byte
		wantPut, wantGet []string
	}{
		{"one-object", one, []string{"HEAD " + b(one), "PUT " + b(one)}, []string{"GET " + b(one)}},
		{"multi-chunk", multi, []string{"HEAD " + b(multi)}, []string{"GET " + b(multi)}},
	}
	for _, ch := range chunks {
		cases[1].wantPut = append(cases[1].wantPut, "HEAD "+c(ch), "PUT "+c(ch))
		cases[1].wantGet = append(cases[1].wantGet, "GET "+c(ch))
	}
	cases[1].wantPut = append(cases[1].wantPut, "PUT "+b(multi))

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			chunks := int64(len(Split(tc.data, DefaultChunkerParams)))
			w := client(0)
			log.take()
			id, err := w.Put(tc.data)
			if err != nil {
				t.Fatalf("Put: %v", err)
			}
			if got := log.take(); !slices.Equal(got, tc.wantPut) {
				t.Errorf("fresh Put made %q, want %q", got, tc.wantPut)
			}
			if ts := w.TierStats(); ts.ChunksStored != chunks || ts.BytesStored != int64(len(tc.data)) {
				t.Errorf("Put counted %d chunks and %d bytes stored, want %d and %d", ts.ChunksStored, ts.BytesStored, chunks, len(tc.data))
			}
			if _, err := w.Put(tc.data); err != nil {
				t.Fatalf("re-Put: %v", err)
			}
			if got := log.take(); len(got) != 0 {
				t.Errorf("re-Put of a blob in the near tier made %q, want none", got)
			}

			cold := client(0)
			got, err := cold.Get(id)
			if err != nil || !bytes.Equal(got, tc.data) {
				t.Fatalf("cold Get = %d bytes, %v; want the payload", len(got), err)
			}
			if reqs := log.take(); !slices.Equal(reqs, tc.wantGet) {
				t.Errorf("cold Get made %q, want %q", reqs, tc.wantGet)
			}
			if ts := cold.TierStats(); ts.ChunkFetches != chunks || ts.BytesFetched != int64(len(tc.data)) {
				t.Errorf("cold Get counted %d chunk fetches of %d bytes, want %d of %d", ts.ChunkFetches, ts.BytesFetched, chunks, len(tc.data))
			}
			got[0] ^= 0xff // the caller owns what Get returns
			if got, err = cold.Get(id); err != nil || !bytes.Equal(got, tc.data) {
				t.Fatalf("warm Get = %d bytes, %v; want the payload", len(got), err)
			}
			if reqs := log.take(); len(reqs) != 0 {
				t.Errorf("warm Get made %q, want none", reqs)
			}
			if ts := cold.TierStats(); ts.ChunkHits != chunks || ts.ChunkFetches != chunks {
				t.Errorf("warm Get counted %d chunk hits (%d fetches in all), want %d (%d)", ts.ChunkHits, ts.ChunkFetches, chunks, chunks)
			}

			rc, err := client(-1).GetStream(id)
			if err != nil {
				t.Fatalf("GetStream: %v", err)
			}
			got, err = io.ReadAll(rc)
			rc.Close()
			if err != nil || !bytes.Equal(got, tc.data) {
				t.Fatalf("cold stream = %d bytes, %v; want the payload", len(got), err)
			}
			if reqs := log.take(); !slices.Equal(reqs, tc.wantGet) {
				t.Errorf("cold GetStream made %q, want %q", reqs, tc.wantGet)
			}
		})
	}
}

// setObject replaces the object at key server-side, as a corrupting disk
// or a foreign writer would.
func setObject(srv *Server, key string, data []byte) {
	srv.mu.Lock()
	defer srv.mu.Unlock()
	srv.objects[key] = data
}

// serverObject returns a copy of the object the server holds at key.
func serverObject(srv *Server, key string) []byte {
	srv.mu.Lock()
	defer srv.mu.Unlock()
	return bytes.Clone(srv.objects[key])
}

// readStream reads the blob through GetStream, returning an error from
// either the open or the read.
func readStream(s *Store, id store.ID) ([]byte, error) {
	rc, err := s.GetStream(id)
	if err != nil {
		return nil, err
	}
	defer rc.Close()
	return io.ReadAll(rc)
}

// TestOldFormBlobReadable: a one-chunk blob written before such blobs
// became one object — a manifest at b/<id> and its chunk at c/<id> —
// reads, lists and deletes as it always did.
func TestOldFormBlobReadable(t *testing.T) {
	srv := NewServer()
	_, client := newLoggedServer(t, srv)
	data := []byte("written as a manifest and one chunk\n")
	id := store.HashBytes(data)
	doc, err := json.Marshal(manifest{Size: int64(len(data)), Chunks: []manifestChunk{{ID: id, Size: int64(len(data))}}})
	if err != nil {
		t.Fatal(err)
	}
	w := client(-1)
	if err := w.putObject(t.Context(), chunkPrefix+string(id), data); err != nil {
		t.Fatal(err)
	}
	if err := w.putObject(t.Context(), blobPrefix+string(id), doc); err != nil {
		t.Fatal(err)
	}

	s := client(0)
	if got, err := s.Get(id); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("Get = %q, %v; want %q", got, err, data)
	}
	if ts := s.TierStats(); ts.ChunkFetches != 1 {
		t.Errorf("Get of an old-form blob counted %d chunk fetches, want 1 (its chunk)", ts.ChunkFetches)
	}
	if got, err := readStream(client(-1), id); err != nil || !bytes.Equal(got, data) {
		t.Fatalf("GetStream = %q, %v; want %q", got, err, data)
	}
	if !s.Has(id) || !client(-1).Has(id) {
		t.Errorf("Has = false for a stored old-form blob")
	}
	if ids, err := s.List(); err != nil || !slices.Equal(ids, []store.ID{id}) {
		t.Errorf("List = %v, %v; want [%s]", ids, err, id)
	}
	if _, err := client(-1).Put(data); err != nil || srv.NumObjects() != 2 {
		t.Errorf("re-Put over an old-form blob: %v, %d objects; want nil and the 2 it had", err, srv.NumObjects())
	}
	if err := s.Delete(id); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if s.Has(id) {
		t.Errorf("Has = true after Delete")
	}
	if _, err := s.Get(id); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("Get after Delete: %v, want fs.ErrNotExist", err)
	}
	if ids, err := s.List(); err != nil || len(ids) != 0 {
		t.Errorf("List after Delete = %v, %v; want empty", ids, err)
	}
}

// TestOverwrittenBlobObjectFails: when the object at b/<id> is replaced
// server-side with other bytes, Get and GetStream fail rather than return
// them, and a cold client admits nothing for b/<id> to its near tier —
// nor anything at all unless the bytes list real chunks, which validate
// on their own addresses.
func TestOverwrittenBlobObjectFails(t *testing.T) {
	srv := NewServer()
	_, client := newLoggedServer(t, srv)
	w := client(0)
	data := []byte("the blob a corrupt object must not pass for\n")
	id, err := w.Put(data)
	if err != nil {
		t.Fatal(err)
	}
	multi, _ := multiChunkPayload(t)
	mid, err := w.Put(multi)
	if err != nil {
		t.Fatal(err)
	}
	flipped := bytes.Clone(data)
	flipped[3] ^= 0xff
	for _, tc := range []struct {
		name      string
		obj       []byte
		listsReal bool // the bytes are a manifest of chunks the server holds
	}{
		{"garbage", []byte("neither a blob nor a manifest"), false},
		{"one byte flipped", flipped, false},
		{"another blob", []byte("another one-chunk blob\n"), false},
		{"empty object", nil, false},
		{"empty manifest", []byte(`{"size":0,"chunks":[]}`), false},
		{"manifest of negative size", []byte(`{"size":-1,"chunks":[]}`), false},
		{"manifest larger than its chunks", []byte(`{"size":1099511627776,"chunks":[{"id":"x","size":1}]}`), false},
		{"another blob's manifest", serverObject(srv, blobPrefix+string(mid)), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			setObject(srv, blobPrefix+string(id), tc.obj)
			r := client(0)
			if got, err := r.Get(id); err == nil {
				t.Errorf("Get returned %d bytes, want an error", len(got))
			}
			if got, err := readStream(r, id); err == nil {
				t.Errorf("GetStream returned %d bytes, want an error", len(got))
			}
			if _, ok := r.cache.Get(blobPrefix + string(id)); ok {
				t.Errorf("the object at b/<id> was admitted to the near tier")
			}
			if n := r.cache.Stats().Entries; n != 0 && !tc.listsReal {
				t.Errorf("near tier holds %d entries after failed reads, want 0", n)
			}
		})
	}
}

// TestDeleteOneObjectBlob: a one-chunk blob is one object, so deleting it
// leaves the server empty.
func TestDeleteOneObjectBlob(t *testing.T) {
	srv := NewServer()
	_, client := newLoggedServer(t, srv)
	s := client(0)
	id, err := s.Put([]byte("one object, nothing left behind\n"))
	if err != nil {
		t.Fatal(err)
	}
	if n := srv.NumObjects(); n != 1 {
		t.Fatalf("one-chunk Put left %d objects, want 1", n)
	}
	if err := s.Delete(id); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if n := srv.NumObjects(); n != 0 {
		t.Errorf("Delete left %d objects, want 0", n)
	}
	if s.Has(id) {
		t.Errorf("Has = true after Delete")
	}
	if _, err := s.Get(id); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("Get after Delete: %v, want fs.ErrNotExist", err)
	}
}

// FuzzRemoteBlobRoundTrip: any bytes come back from Get and GetStream as
// they were put, whichever form they are stored in. Flipping one byte of
// what is stored must then give an error, never other bytes: the object
// at b/<id> when the blob is one object, else one of its chunks. A flip in
// a manifest may leave it meaning the same chunks, so there the blob may
// also come back whole, but never as other bytes.
func FuzzRemoteBlobRoundTrip(f *testing.F) {
	multi, _ := multiChunkPayload(f)
	for _, seed := range [][]byte{
		nil,
		[]byte("x"),
		[]byte("a,b\n1,2\n"),
		[]byte(`{"size":0,"chunks":null}`),
		bytes.Repeat([]byte("row,1,2\n"), 300),
		multi,
	} {
		f.Add(seed, uint16(7))
	}
	srv := NewServer()
	ts := httptest.NewServer(srv.Handler())
	f.Cleanup(ts.Close)
	s := New(ts.URL, Options{HTTPClient: ts.Client(), HedgeAfter: -1, Retries: -1, CacheBytes: -1})
	f.Fuzz(func(t *testing.T, data []byte, pos uint16) {
		srv.Reset()
		id, err := s.Put(data)
		if err != nil {
			t.Fatalf("Put: %v", err)
		}
		if got, err := s.Get(id); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("Get = %d bytes, %v; want the %d put", len(got), err, len(data))
		}
		if got, err := readStream(s, id); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("GetStream = %d bytes, %v; want the %d put", len(got), err, len(data))
		}

		chunks := Split(data, DefaultChunkerParams)
		corrupt := func(key string, sameAllowed bool) {
			t.Helper()
			orig := serverObject(srv, key)
			bad := bytes.Clone(orig)
			bad[int(pos)%len(bad)] ^= 0xff
			setObject(srv, key, bad)
			defer setObject(srv, key, orig)
			for name, read := range map[string]func() ([]byte, error){
				"Get":       func() ([]byte, error) { return s.Get(id) },
				"GetStream": func() ([]byte, error) { return readStream(s, id) },
			} {
				got, err := read()
				if err == nil && !(sameAllowed && bytes.Equal(got, data)) {
					t.Fatalf("%s after flipping a byte of %s returned %d bytes, want an error", name, key, len(got))
				}
			}
		}
		corrupt(blobPrefix+string(id), len(chunks) != 1)
		if len(chunks) > 1 {
			corrupt(chunkPrefix+string(store.HashBytes(chunks[int(pos)%len(chunks)])), false)
		}
	})
}
