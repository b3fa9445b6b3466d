package store_test

import (
	"testing"

	"versiondb/internal/store"
	"versiondb/internal/store/faultfs"
	"versiondb/internal/store/storetest"
)

// TestBackendConformance runs the shared storetest suite over both
// shipped local backends and the unarmed fault-injecting wrapper. The
// remote backend runs the identical suite (plus fault injection) in
// internal/store/remote.
func TestBackendConformance(t *testing.T) {
	backends := map[string]func(t *testing.T) store.Backend{
		"fs": func(t *testing.T) store.Backend {
			s, err := store.Open(t.TempDir())
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			return s
		},
		"mem":     func(t *testing.T) store.Backend { return store.NewMemStore() },
		"faultfs": func(t *testing.T) store.Backend { return faultfs.Wrap(store.NewMemStore()) },
	}
	for name, open := range backends {
		t.Run(name, func(t *testing.T) {
			storetest.RunBackendConformance(t, open)
		})
	}
}
