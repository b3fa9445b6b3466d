// Package remote implements the S3-style remote storage tier: a
// store.Backend whose blobs live in an HTTP object store as
// content-defined chunks. A blob is split at rolling-hash cut points
// into chunks addressed by their own SHA-256. A blob of one chunk — every
// blob under the chunker's 2 KiB minimum and most under its 8 KiB average,
// which covers most deltas — is stored as one object, its own bytes at b/<blob id>, so a
// cold read is one round trip. A larger blob is a small manifest at
// b/<blob id> listing chunks stored at c/<chunk id>, and near-identical
// versions along a delta chain share most of those chunks — uploading a
// lightly edited payload transfers only the chunks the edit touched, the
// dedup idiom of git/restic-style chunked remotes. Readers tell the two
// forms apart by content address: an object whose SHA-256 is the blob id
// is the blob itself, anything else is a manifest. A store written when
// every blob had a manifest therefore stays readable, but a reader from
// before one-chunk blobs became one object cannot parse them: upgrade
// replicas and readers before the writer.
//
// The client (Store) fronts the remote with a byte-budget chunk cache
// (the near tier below the repository's VersionCache), hedges slow chunk
// fetches with a second request after a latency percentile
// (first-response-wins, bounded by the serving path's negative-result
// TTL), and retries transient failures — 5xx, torn responses, connection
// errors — with exponential backoff. Server is the matching object
// server: memory-backed, production-shaped, with injectable latency,
// 5xx bursts, and torn responses for conformance and crash tests.
package remote

// Content-defined chunking: cut points come from a gear rolling hash
// (FastCDC's hash family), so a boundary depends only on the ~64 bytes
// preceding it — an edit moves the boundaries near it, and the chunking
// re-synchronizes at the next content-defined cut. Compare delta
// compression, which needs the *pair* of versions at encode time:
// chunk-level dedup needs only the bytes being written, so it works
// across branches and across repositories sharing one remote.

// ChunkerParams bound chunk sizes: no cut before Min bytes, a forced cut
// at Max, and a content-defined cut wherever the rolling hash hits a
// 1-in-Avg pattern in between. Avg must be a power of two (it becomes
// the hash mask).
type ChunkerParams struct {
	Min, Avg, Max int
}

// DefaultChunkerParams targets chunks of ~8 KiB (2 KiB min, 32 KiB max)
// — small enough that a few-line CSV edit dirties one or two chunks,
// large enough that manifest overhead stays negligible.
var DefaultChunkerParams = ChunkerParams{Min: 2 << 10, Avg: 8 << 10, Max: 32 << 10}

// normalize fills zero fields from the defaults and repairs inconsistent
// bounds (Min ≤ Avg ≤ Max, Avg a power of two).
func (p ChunkerParams) normalize() ChunkerParams {
	d := DefaultChunkerParams
	if p.Min <= 0 {
		p.Min = d.Min
	}
	if p.Avg <= 0 {
		p.Avg = d.Avg
	}
	// Round Avg up to a power of two for the mask.
	avg := 1
	for avg < p.Avg {
		avg <<= 1
	}
	p.Avg = avg
	if p.Max <= 0 {
		p.Max = d.Max
	}
	if p.Avg < p.Min {
		p.Avg = p.Min // degenerate but well-defined: cuts gate on Min anyway
	}
	if p.Max < p.Avg {
		p.Max = p.Avg
	}
	return p
}

// gearTable is the random byte→uint64 mapping behind the rolling hash,
// generated deterministically (splitmix64) so cut points are stable
// across processes — a requirement for dedup against an existing remote.
var gearTable = func() [256]uint64 {
	var t [256]uint64
	seed := uint64(0x9e3779b97f4a7c15)
	for i := range t {
		seed += 0x9e3779b97f4a7c15
		z := seed
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		t[i] = z ^ (z >> 31)
	}
	return t
}()

// SplitPoints returns the chunk end offsets of data under p, in
// increasing order, ending with len(data). Empty data has no chunks.
// The hash state resets at every cut, so everything after a boundary
// depends only on the bytes after it — the re-synchronization property
// FuzzChunkerRoundTrip pins down.
func SplitPoints(data []byte, p ChunkerParams) []int {
	p = p.normalize()
	mask := uint64(p.Avg - 1)
	var cuts []int
	start := 0
	var h uint64
	for i := 0; i < len(data); i++ {
		h = h<<1 + gearTable[data[i]]
		n := i - start + 1
		if (n >= p.Min && h&mask == mask) || n >= p.Max {
			cuts = append(cuts, i+1)
			start = i + 1
			h = 0
		}
	}
	if start < len(data) {
		cuts = append(cuts, len(data))
	}
	return cuts
}

// Split cuts data into content-defined chunks under p. The chunks are
// subslices of data (no copy); their concatenation is data.
func Split(data []byte, p ChunkerParams) [][]byte {
	points := SplitPoints(data, p)
	chunks := make([][]byte, 0, len(points))
	start := 0
	for _, end := range points {
		chunks = append(chunks, data[start:end])
		start = end
	}
	return chunks
}
