package store

import "io"

// Backend is a content-addressed blob store that also keeps a
// repository's metadata documents and log: the physical substrate every
// storage layout is built on. Implementations must be safe for concurrent
// use by multiple goroutines — the serving path issues parallel reads
// against a backend while commits write to it.
//
// Three implementations ship: ObjectStore (loose objects + packfiles on a
// local filesystem, the paper's prototype medium), MemStore (a
// lock-guarded map, for serving replicas and tests) and remote.Store (an
// S3-style chunked object tier). The fault-injecting faultfs.Store wraps
// any of them.
type Backend interface {
	// Put writes data idempotently and returns its content address.
	Put(data []byte) (ID, error)
	// Get reads the blob with the given ID, verifying its content address.
	Get(id ID) ([]byte, error)
	// Has reports whether the blob exists.
	Has(id ID) bool
	// Delete removes a blob; deleting a missing blob is not an error.
	Delete(id ID) error
	// List returns the IDs of all stored blobs in sorted order.
	List() ([]ID, error)

	BlobStreamer
	MetaStore
	LogStore
}

// MetaStore persists small named metadata documents (the metadata log's
// compaction snapshot) next to the blobs. Writes must be atomic: a reader
// of a name sees either the old or the new document, never a torn mix —
// the property the metadata log relies on for crash-consistent snapshots.
// Missing names yield an error satisfying errors.Is(err, fs.ErrNotExist).
type MetaStore interface {
	PutMeta(name string, data []byte) error
	GetMeta(name string) ([]byte, error)
}

// BlobStreamer is an incremental read of a single blob. The streaming
// checkout path reads chain-base payloads through it, so a large
// materialized version never sits in memory whole just to seed a reader
// stack. Errors are those of Get: a missing blob satisfies
// errors.Is(err, fs.ErrNotExist). As with Get, implementations must verify
// the content address — incrementally is fine, as long as a corrupt blob
// surfaces as a Read error no later than EOF.
type BlobStreamer interface {
	GetStream(id ID) (io.ReadCloser, error)
}

// LogDevice is an append-only byte log — the durable medium beneath the
// metadata record log (internal/store/metalog). Unlike PutMeta it is NOT
// atomic: a crash mid-Append may leave a torn tail, and that is the point —
// the record log's framing (length prefix + checksum) detects the tear and
// recovery truncates back to the last whole record via Truncate. Append
// must be durable when it returns without error; a partial write must
// surface an error.
type LogDevice interface {
	// ReadAll returns the device's entire current contents.
	ReadAll() ([]byte, error)
	// Append writes p at the end of the device, durably.
	Append(p []byte) error
	// Truncate discards all bytes at offsets ≥ size (torn-tail repair and
	// log compaction reset).
	Truncate(size int64) error
	// Close releases the device; the log bytes persist.
	Close() error
}

// LogStore holds named append-only logs next to the blobs and metadata
// documents: the repository's metadata record log.
type LogStore interface {
	OpenLog(name string) (LogDevice, error)
}

// Compile-time conformance of both local backends.
var (
	_ Backend = (*ObjectStore)(nil)
	_ Backend = (*MemStore)(nil)
)
