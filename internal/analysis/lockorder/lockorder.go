// Package lockorder enforces the lock hierarchy documented in
// docs/ARCHITECTURE.md §Lock hierarchy. The table there is encoded as
// data in Ranks; acquiring a lock whose rank is less than or equal to
// the rank of any lock already held — directly or through any statically
// resolvable call chain — is a diagnostic. Separately, NoIOLocks names
// the mutexes (the singleflight flightMu and the jobs manager mutex)
// that must never be held across blob I/O or delta application.
package lockorder

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"versiondb/internal/analysis"
	"versiondb/internal/analysis/lockscan"
)

// Ranks is the ARCHITECTURE.md lock table as data. Lower rank = acquired
// earlier (outermost). A function may acquire a lock only while every
// held lock has a strictly lower rank.
var Ranks = map[string]int{
	"versiondb/internal/autotune.Engine.mu":          0,
	"versiondb/internal/replication.Follower.mu":     5,
	"versiondb/internal/jobs.Manager.mu":             10,
	"versiondb/internal/repo.Repo.optMu":             20,
	"versiondb/internal/repo.Repo.mu":                30,
	"versiondb/internal/repo.Repo.shadowMu":          32,
	"versiondb/internal/repo.Repo.jobMu":             35,
	"versiondb/internal/store.AccessStats.flushMu":   40,
	"versiondb/internal/store.AccessStats.mu":        50,
	"versiondb/internal/store/metalog.Log.mu":        55,
	"versiondb/internal/store.Layout.flightMu":       60,
	"versiondb/internal/store.Layout.negMu":          70,
	"versiondb/internal/store.LRU.mu":                80,
	"versiondb/internal/store/faultfs.Store.mu":      85,
	"versiondb/internal/store/remote.latencyRing.mu": 87,
	"versiondb/internal/store/remote.Server.mu":      88,
	"versiondb/internal/store.MemStore.mu":           90,
	"versiondb/internal/store.ObjectStore.mu":        91,
	"versiondb/internal/store.fileLogDevice.mu":      92,
	"versiondb/internal/store.memLogDevice.mu":       93,
	"versiondb/internal/solvetest.Gate.mu":           96,
	"versiondb/internal/solve.registryMu":            97,
}

// NoIOLocks are mutexes that must never be held across blob I/O or
// delta application (ARCHITECTURE.md: "flightMu is never held across
// blob I/O"; "jobs.Manager.mu never calls out while held").
var NoIOLocks = map[string]bool{
	"versiondb/internal/store.Layout.flightMu": true,
	"versiondb/internal/jobs.Manager.mu":       true,
}

// BlobIOTypes are the qualified type names whose method calls count as
// blob I/O. The LRU cache is deliberately absent: cache hits are
// in-memory and safe under any lock.
var BlobIOTypes = map[string]bool{
	"versiondb/internal/store.Backend":      true,
	"versiondb/internal/store.MetaStore":    true,
	"versiondb/internal/store.BlobStreamer": true,
	"versiondb/internal/store.MemStore":     true,
	"versiondb/internal/store.ObjectStore":  true,
	"versiondb/internal/store.Pack":         true,
}

// ApplyPackages maps package paths to the function-name prefix whose
// calls count as delta application.
var ApplyPackages = map[string]string{
	"versiondb/internal/delta": "Apply",
}

// Analyzer is the lockorder pass.
var Analyzer = &analysis.Analyzer{
	Name: "lockorder",
	Doc: "check lock acquisition order against the ARCHITECTURE.md rank table, " +
		"and forbid blob I/O / delta application while flightMu or jobs.Manager.mu is held",
	Run: run,
}

// summary records the lock-relevant effects of one declared function.
type summary struct {
	acquires map[string]token.Pos // lock ID -> first acquisition site
	blobIO   bool
	callees  map[*types.Func]bool
}

// trans is a function's transitive closure over its static call graph.
type trans struct {
	acquires map[string]bool
	blobIO   bool
}

// modFacts caches the per-module summaries and closures, built once and
// shared across the per-package passes of one run.
type modFacts struct {
	summaries map[*types.Func]*summary
	closures  map[*types.Func]*trans
	onStack   map[*types.Func]bool
}

var factsCache = map[*analysis.Module]*modFacts{}

func run(pass *analysis.Pass) (any, error) {
	facts := factsFor(pass.Module)
	for _, f := range pass.Files {
		for _, root := range lockscan.Roots(f) {
			lockscan.ScanFunc(pass.TypesInfo, root.Body, lockscan.Events{
				Acquire: func(op lockscan.LockOp, held []lockscan.Held) {
					opRank, ok := Ranks[op.ID]
					if !ok {
						return
					}
					for _, h := range held {
						hRank, ok := Ranks[h.ID]
						if !ok {
							continue
						}
						if opRank <= hRank {
							pass.Reportf(op.Pos,
								"lock order violation: acquiring %s (rank %d) while holding %s (rank %d)",
								short(op.ID), opRank, short(h.ID), hRank)
						}
					}
				},
				Call: func(call *ast.CallExpr, held []lockscan.Held, deferred bool) {
					if deferred || len(held) == 0 {
						return
					}
					if isBlobIO(pass.TypesInfo, call) {
						for _, h := range held {
							if NoIOLocks[h.ID] {
								pass.Reportf(call.Pos(),
									"blob I/O or delta application while holding %s", short(h.ID))
							}
						}
					}
					callee := lockscan.CalleeOf(pass.TypesInfo, call)
					if callee == nil {
						return
					}
					tc := facts.closure(callee)
					if tc == nil {
						return
					}
					for _, h := range held {
						hRank, ranked := Ranks[h.ID]
						if ranked {
							for id := range tc.acquires {
								if r, ok := Ranks[id]; ok && r <= hRank {
									pass.Reportf(call.Pos(),
										"call to %s acquires %s (rank %d) while %s (rank %d) is held",
										callee.Name(), short(id), r, short(h.ID), hRank)
								}
							}
						}
						if tc.blobIO && NoIOLocks[h.ID] {
							pass.Reportf(call.Pos(),
								"call to %s performs blob I/O while %s is held",
								callee.Name(), short(h.ID))
						}
					}
				},
			})
		}
	}
	return nil, nil
}

// factsFor builds (or returns cached) whole-module function summaries.
func factsFor(m *analysis.Module) *modFacts {
	if f, ok := factsCache[m]; ok {
		return f
	}
	f := &modFacts{
		summaries: map[*types.Func]*summary{},
		closures:  map[*types.Func]*trans{},
		onStack:   map[*types.Func]bool{},
	}
	for _, pkg := range m.Packages() {
		for _, file := range pkg.Files {
			for _, root := range lockscan.Roots(file) {
				if root.Decl == nil {
					continue // literals are independent roots, not call targets
				}
				fn, ok := pkg.Info.Defs[root.Decl.Name].(*types.Func)
				if !ok {
					continue
				}
				sum := &summary{acquires: map[string]token.Pos{}, callees: map[*types.Func]bool{}}
				lockscan.ScanFunc(pkg.Info, root.Body, lockscan.Events{
					Acquire: func(op lockscan.LockOp, _ []lockscan.Held) {
						if _, ok := sum.acquires[op.ID]; !ok {
							sum.acquires[op.ID] = op.Pos
						}
					},
					Call: func(call *ast.CallExpr, _ []lockscan.Held, deferred bool) {
						if deferred {
							return
						}
						if isBlobIO(pkg.Info, call) {
							sum.blobIO = true
						}
						if callee := lockscan.CalleeOf(pkg.Info, call); callee != nil {
							sum.callees[callee] = true
						}
					},
				})
				f.summaries[fn] = sum
			}
		}
	}
	factsCache[m] = f
	return f
}

// closure computes fn's transitive acquisitions and I/O over the static
// call graph, memoized, with a cycle guard. Returns nil for functions
// with no summary (interface methods, out-of-module functions) — the
// approximation there is "no effect"; interface blob I/O is still caught
// at the call site by isBlobIO.
func (f *modFacts) closure(fn *types.Func) *trans {
	if tc, ok := f.closures[fn]; ok {
		return tc
	}
	sum, ok := f.summaries[fn]
	if !ok {
		return nil
	}
	if f.onStack[fn] {
		return nil // recursion: break the cycle, effects flow via other paths
	}
	f.onStack[fn] = true
	tc := &trans{acquires: map[string]bool{}, blobIO: sum.blobIO}
	for id := range sum.acquires {
		tc.acquires[id] = true
	}
	for callee := range sum.callees {
		sub := f.closure(callee)
		if sub == nil {
			continue
		}
		for id := range sub.acquires {
			tc.acquires[id] = true
		}
		tc.blobIO = tc.blobIO || sub.blobIO
	}
	delete(f.onStack, fn)
	f.closures[fn] = tc
	return tc
}

// isBlobIO classifies a call as blob I/O / delta application: a method
// on one of BlobIOTypes, or a function in an ApplyPackages package whose
// name carries that package's prefix.
func isBlobIO(info *types.Info, call *ast.CallExpr) bool {
	fn := lockscan.CalleeOf(info, call)
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	if owner := lockscan.OwnerName(fn); owner != "" {
		return BlobIOTypes[owner]
	}
	prefix, ok := ApplyPackages[fn.Pkg().Path()]
	return ok && strings.HasPrefix(fn.Name(), prefix)
}

// short trims the module path off a lock ID for readable diagnostics.
func short(id string) string {
	if i := strings.LastIndex(id, "/"); i >= 0 {
		return id[i+1:]
	}
	return id
}
