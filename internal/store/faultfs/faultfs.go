// Package faultfs is a fault-injecting backend wrapper: the crash machine
// behind the metadata log's recovery property tests. It interposes on
// every durable write and enforces a byte budget — once the budget is
// spent, the "power is cut": the op in flight either lands atomically or
// not at all (blob and metadata writes, which the real backends implement
// with temp-file + rename) or tears mid-way (log appends, which the real
// devices write in place), and every later operation fails with
// ErrCrashed, like syscalls against a dead process.
//
// A property test drives it by replaying a workload once cleanly to learn
// its total durable-write footprint W, then re-running it W+1 times with
// SetCrashAfter(k) for every k in [0, W] and reopening after each crash.
// The invariant under test: recovery sees the pre-crash state or the
// committed post-crash state — never a corrupt one.
package faultfs

import (
	"errors"
	"io"
	"sync"

	"versiondb/internal/store"
)

// ErrCrashed marks any operation attempted at or after the injected power
// cut. It wraps nothing: a crash is not a storage error, it is the end of
// the process.
var ErrCrashed = errors.New("faultfs: simulated crash")

// Store wraps a backend with a durable-write byte budget. The
// zero-value-like unarmed state (from Wrap) passes everything through
// while counting bytes; SetCrashAfter arms the cut.
type Store struct {
	mu      sync.Mutex
	inner   store.Backend
	armed   bool
	budget  int64 // durable bytes remaining before the cut, when armed
	crashed bool
	written int64 // durable bytes accepted since Wrap (survives re-arming)
}

// Wrap returns an unarmed fault-injecting view of inner.
func Wrap(inner store.Backend) *Store {
	return &Store{inner: inner}
}

// SetCrashAfter arms the store to accept exactly n more durable bytes and
// then cut power. It also clears a previous crash — the test-harness
// equivalent of rebooting the machine.
func (s *Store) SetCrashAfter(n int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.armed = true
	s.budget = n
	s.crashed = false
}

// Disarm lifts the budget and clears any crash: the reboot before
// recovery, after which reads and writes behave normally.
func (s *Store) Disarm() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.armed = false
	s.crashed = false
}

// Crashed reports whether the injected power cut has fired.
func (s *Store) Crashed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.crashed
}

// BytesWritten returns the total durable bytes accepted since Wrap — the
// W a property test sweeps its crash point over.
func (s *Store) BytesWritten() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.written
}

// consumeAtomic charges an all-or-nothing write of cost bytes: either the
// whole budget is there (write proceeds) or the cut fires and nothing
// lands — the temp-file + rename semantics of blob and metadata writes.
func (s *Store) consumeAtomic(cost int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.crashed {
		return ErrCrashed
	}
	if s.armed && s.budget < cost {
		s.crashed = true
		return ErrCrashed
	}
	if s.armed {
		s.budget -= cost
	}
	s.written += cost
	return nil
}

// consumeTearable charges an in-place append of n bytes and returns how
// many land durably. Short of budget, the write tears: the first `budget`
// bytes land, the cut fires, and the caller gets ErrCrashed.
func (s *Store) consumeTearable(n int64) (int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.crashed {
		return 0, ErrCrashed
	}
	if s.armed && s.budget < n {
		landed := s.budget
		s.budget = 0
		s.crashed = true
		s.written += landed
		return landed, ErrCrashed
	}
	if s.armed {
		s.budget -= n
	}
	s.written += n
	return n, nil
}

// alive fails reads once the power is cut: a dead process issues no
// syscalls.
func (s *Store) alive() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.crashed {
		return ErrCrashed
	}
	return nil
}

// Put writes a blob atomically: all of it lands within budget, or none of
// it does.
func (s *Store) Put(data []byte) (store.ID, error) {
	if err := s.consumeAtomic(int64(len(data))); err != nil {
		return "", err
	}
	return s.inner.Put(data)
}

// Get reads a blob.
func (s *Store) Get(id store.ID) ([]byte, error) {
	if err := s.alive(); err != nil {
		return nil, err
	}
	return s.inner.Get(id)
}

// GetStream reads a blob incrementally.
func (s *Store) GetStream(id store.ID) (io.ReadCloser, error) {
	if err := s.alive(); err != nil {
		return nil, err
	}
	return s.inner.GetStream(id)
}

// Has reports blob existence; a crashed store reports nothing.
func (s *Store) Has(id store.ID) bool {
	if err := s.alive(); err != nil {
		return false
	}
	return s.inner.Has(id)
}

// Delete removes a blob. Deletes are metadata-cheap; they charge one byte
// so a crash point can land between a delete and the next write.
func (s *Store) Delete(id store.ID) error {
	if err := s.consumeAtomic(1); err != nil {
		return err
	}
	return s.inner.Delete(id)
}

// List returns all blob IDs.
func (s *Store) List() ([]store.ID, error) {
	if err := s.alive(); err != nil {
		return nil, err
	}
	return s.inner.List()
}

// PutMeta writes a metadata document atomically — the MetaStore contract
// survives fault injection: a crashed PutMeta leaves the old document.
func (s *Store) PutMeta(name string, data []byte) error {
	if err := s.consumeAtomic(int64(len(data))); err != nil {
		return err
	}
	return s.inner.PutMeta(name, data)
}

// GetMeta reads a metadata document.
func (s *Store) GetMeta(name string) ([]byte, error) {
	if err := s.alive(); err != nil {
		return nil, err
	}
	return s.inner.GetMeta(name)
}

// OpenLog opens the named log with tearing appends.
func (s *Store) OpenLog(name string) (store.LogDevice, error) {
	if err := s.alive(); err != nil {
		return nil, err
	}
	dev, err := s.inner.OpenLog(name)
	if err != nil {
		return nil, err
	}
	return &logDevice{s: s, inner: dev}, nil
}

// logDevice routes a LogDevice through the store's budget. Appends are the
// one write class that tears: a crash mid-append leaves a prefix of the
// frame on the device, exactly what a real power cut does to an in-place
// file append.
type logDevice struct {
	s     *Store
	inner store.LogDevice
}

func (d *logDevice) ReadAll() ([]byte, error) {
	if err := d.s.alive(); err != nil {
		return nil, err
	}
	return d.inner.ReadAll()
}

func (d *logDevice) Append(p []byte) error {
	n, err := d.s.consumeTearable(int64(len(p)))
	if n > 0 {
		if ierr := d.inner.Append(p[:n]); ierr != nil {
			return ierr
		}
	}
	return err
}

func (d *logDevice) Truncate(size int64) error {
	// Truncation is a single metadata syscall: atomic, zero-cost.
	if err := d.s.alive(); err != nil {
		return err
	}
	return d.inner.Truncate(size)
}

func (d *logDevice) Close() error { return d.inner.Close() }

// Compile-time conformance: a wrapped store is a drop-in backend.
var _ store.Backend = (*Store)(nil)
