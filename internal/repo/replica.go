// Replica mode: a read-only repository that follows a primary's metadata
// log instead of writing one. OpenReplica builds an empty shell over the
// shared blob backend; a follower (internal/replication) then feeds it the
// primary's compaction snapshot and record tail through ApplySnapshot and
// ApplyRecords — the same record semantics startup recovery uses — so the
// replica's in-memory state is always a whole-record prefix of the
// primary's history. Replicas never write: not payload blobs, not metadata
// documents, not log records. Every mutating entry point answers
// ErrReplica, and a replica opens no metadata log, so no persistence path
// can clobber the primary's log on a shared backend.
package repo

import (
	"context"
	"errors"
	"fmt"
	"time"

	"versiondb/internal/store"
	"versiondb/internal/store/metalog"
)

// ErrReplica marks a mutating operation or a log-tail read on a read-only
// replica. Both belong on the primary; the routing layer forwards writes
// there.
var ErrReplica = errors.New("read-only replica")

// OpenReplica opens a read-only replica over the primary's shared blob
// backend. The replica starts empty; feed it the primary's state with
// ApplySnapshot and ApplyRecords (a replication.Follower does both). The
// backend is read only for blobs on the checkout path — the replica never
// opens the metadata log device and never writes a document.
func OpenReplica(b store.Backend) (*Repo, error) {
	r := newRepoShell(b)
	r.replica = true
	r.stats = store.NewAccessStats()
	r.layout = emptyLayout(b)
	return r, nil
}

// IsReplica reports whether this repository is a read-only replica.
func (r *Repo) IsReplica() bool { return r.replica }

// writable guards mutating entry points: replicas answer ErrReplica.
func (r *Repo) writable() error {
	if r.replica {
		return fmt.Errorf("repo: %w", ErrReplica)
	}
	return nil
}

// ApplySnapshot resets the replica to the primary's compaction snapshot
// covering baseSeq: the full-state reset a follower performs at bootstrap,
// and again whenever it falls so far behind that the records it missed
// were compacted away. It empties the checkout cache, since the snapshot
// may come from another history; a swap record applied by ApplyRecords
// keeps it.
func (r *Repo) ApplySnapshot(snap []byte, baseSeq uint64) error {
	if !r.replica {
		return fmt.Errorf("repo: apply snapshot: primary repositories recover from their own log")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.resetToSnapshot(snap); err != nil {
		return err
	}
	r.appliedSeq = baseSeq
	r.lastApply = time.Now()
	return nil
}

// ApplyRecords folds the primary's new log records into the live replica
// state, in order, under one write-lock hold; records at or below the
// applied sequence are skipped (idempotent re-delivery). Readers see each
// record's effect atomically — a checkout either runs before a commit
// record lands or sees its version fully placed, never half of it. It
// returns how many records were applied.
func (r *Repo) ApplyRecords(recs []metalog.Record) (int, error) {
	if !r.replica {
		return 0, fmt.Errorf("repo: apply records: primary repositories recover from their own log")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	applied := 0
	for _, rec := range recs {
		if rec.Seq <= r.appliedSeq {
			continue
		}
		if err := r.applyRecord(rec); err != nil {
			return applied, err
		}
		r.appliedSeq = rec.Seq
		applied++
	}
	if applied > 0 {
		r.lastApply = time.Now()
	}
	return applied, nil
}

// ReplicaStatus reports the replica's replay cursor: the last applied
// sequence number and when the last batch of records was applied.
// isReplica is false on a primary (the other values are then zero).
func (r *Repo) ReplicaStatus() (applied uint64, lastApply time.Time, isReplica bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.appliedSeq, r.lastApply, r.replica
}

// LogTail reads the metadata log past the follower's cursor — the
// server side of GET /log?from=. With wait set it long-polls: a caught-up
// follower blocks until the next append or ctx is done (a ctx expiry
// returns an empty view, the normal "nothing yet" answer). A replica
// keeps no log of its own and answers ErrReplica: followers tail the
// primary.
func (r *Repo) LogTail(ctx context.Context, from uint64, wait bool) (*metalog.TailView, error) {
	if r.replica {
		return nil, fmt.Errorf("repo: log tail: %w", ErrReplica)
	}
	if wait {
		return r.log.Tail(ctx, from)
	}
	return r.log.ReadFrom(from)
}

// ChainRoot resolves version v to the root of its delta chain in the
// current layout — the consistent-hash routing key that keeps whole chain
// prefixes on one replica's cache.
func (r *Repo) ChainRoot(v int) (int, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if v < 0 || v >= len(r.layout.Entries) {
		return 0, fmt.Errorf("repo: version %d out of range [0,%d): %w", v, len(r.layout.Entries), ErrUnknownVersion)
	}
	return r.layout.ChainRoot(v)
}
