// Package a is the lockorder analysistest fixture. The test ranks
// Outer.mu (0) before Gen.mu (5) before Inner.mu (10) before NoIO.mu
// (20), marks NoIO.mu as a no-I/O lock, and classifies Blob methods as
// blob I/O.
package a

import "sync"

type Outer struct{ mu sync.Mutex }

type Inner struct{ mu sync.Mutex }

type NoIO struct{ mu sync.Mutex }

type Blob struct{}

func (b *Blob) Get(k string) []byte { return nil }

var (
	o Outer
	i Inner
	g NoIO
	b Blob
)

func goodOrder() {
	o.mu.Lock()
	i.mu.Lock()
	i.mu.Unlock()
	o.mu.Unlock()
}

func badDirect() {
	i.mu.Lock()
	o.mu.Lock() // want `lock order violation: acquiring a\.Outer\.mu \(rank 0\) while holding a\.Inner\.mu \(rank 10\)`
	o.mu.Unlock()
	i.mu.Unlock()
}

func lockOuter() {
	o.mu.Lock()
	o.mu.Unlock()
}

func lockInner() {
	i.mu.Lock()
	i.mu.Unlock()
}

func badTransitive() {
	i.mu.Lock()
	lockOuter() // want `call to lockOuter acquires a\.Outer\.mu \(rank 0\) while a\.Inner\.mu \(rank 10\) is held`
	i.mu.Unlock()
}

func goodTransitive() {
	o.mu.Lock()
	lockInner()
	o.mu.Unlock()
}

func badIO() {
	g.mu.Lock()
	_ = b.Get("k") // want `blob I/O or delta application while holding a\.NoIO\.mu`
	g.mu.Unlock()
}

func goodIO() {
	g.mu.Lock()
	g.mu.Unlock()
	_ = b.Get("k")
}

func doIO() { _ = b.Get("k") }

func badIOTransitive() {
	g.mu.Lock()
	doIO() // want `call to doIO performs blob I/O while a\.NoIO\.mu is held`
	g.mu.Unlock()
}

// Both branches release before the next acquisition: no violation.
func branchMerge(c bool) {
	i.mu.Lock()
	if c {
		i.mu.Unlock()
	} else {
		i.mu.Unlock()
	}
	o.mu.Lock()
	o.mu.Unlock()
}

// The early-return branch releases; the fallthrough path still holds o.
func earlyReturn(c bool) {
	o.mu.Lock()
	if c {
		o.mu.Unlock()
		return
	}
	i.mu.Lock()
	i.mu.Unlock()
	o.mu.Unlock()
}

// defer mu.Unlock() keeps the lock held to function end.
func deferredUnlock() {
	i.mu.Lock()
	defer i.mu.Unlock()
	o.mu.Lock() // want `lock order violation: acquiring a\.Outer\.mu \(rank 0\) while holding a\.Inner\.mu \(rank 10\)`
	o.mu.Unlock()
}

// Goroutine bodies start with an empty held set.
func goroutine() {
	i.mu.Lock()
	go func() {
		o.mu.Lock()
		o.mu.Unlock()
	}()
	i.mu.Unlock()
}

// Gen is generic: calls on an instantiation resolve to the generic
// method's summary, so the lock Gen.mu (ranked below Inner.mu) is seen.
type Gen[K comparable] struct {
	mu sync.Mutex
	m  map[K]int
}

func (c *Gen[K]) Touch(k K) {
	c.mu.Lock()
	c.m[k]++
	c.mu.Unlock()
}

var gi Gen[int]

func badGeneric() {
	i.mu.Lock()
	gi.Touch(1) // want `call to Touch acquires a\.Gen\.mu \(rank 5\) while a\.Inner\.mu \(rank 10\) is held`
	i.mu.Unlock()
}
