package lockorder_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"versiondb/internal/analysis"
	"versiondb/internal/analysis/lockorder"
)

func TestLockOrder(t *testing.T) {
	defer swapConfig(
		map[string]int{
			"lockordertest/a.Outer.mu": 0,
			"lockordertest/a.Gen.mu":   5,
			"lockordertest/a.Inner.mu": 10,
			"lockordertest/a.NoIO.mu":  20,
		},
		map[string]bool{"lockordertest/a.NoIO.mu": true},
		map[string]bool{"lockordertest/a.Blob": true},
	)()
	analysis.TestAnalyzer(t, "testdata", lockorder.Analyzer, "a")
}

func swapConfig(ranks map[string]int, noIO, blob map[string]bool) func() {
	oldRanks, oldNoIO, oldBlob := lockorder.Ranks, lockorder.NoIOLocks, lockorder.BlobIOTypes
	lockorder.Ranks, lockorder.NoIOLocks, lockorder.BlobIOTypes = ranks, noIO, blob
	return func() {
		lockorder.Ranks, lockorder.NoIOLocks, lockorder.BlobIOTypes = oldRanks, oldNoIO, oldBlob
	}
}

// TestRankTableComplete asserts that every sync.Mutex / sync.RWMutex
// struct field or package-level var declared in
// internal/{repo,store,jobs,autotune,replication} has a rank, so a new
// lock cannot be added without placing it in the hierarchy — and,
// conversely, that every rank names a mutex that still exists, so a row
// cannot outlive its lock.
func TestRankTableComplete(t *testing.T) {
	for _, pkg := range []string{"repo", "store", "store/metalog", "store/faultfs", "store/remote", "jobs", "autotune", "replication"} {
		for id := range mutexIDs(t, "versiondb/internal/"+pkg) {
			if _, ok := lockorder.Ranks[id]; !ok {
				t.Errorf("mutex %s is not in the lockorder rank table; add it to lockorder.Ranks", id)
			}
		}
	}
	declared := map[string]map[string]bool{}
	for id := range lockorder.Ranks {
		slash := strings.LastIndex(id, "/")
		pkgPath := id[:slash+strings.Index(id[slash:], ".")]
		if declared[pkgPath] == nil {
			declared[pkgPath] = mutexIDs(t, pkgPath)
		}
		if !declared[pkgPath][id] {
			t.Errorf("lockorder.Ranks names %s, which is no longer a mutex; delete the row", id)
		}
	}
}

// mutexIDs parses the non-test files of the internal package pkgPath and
// returns the lock IDs of its sync.Mutex / sync.RWMutex struct fields
// (pkg.Type.field) and package-level vars (pkg.var).
func mutexIDs(t *testing.T, pkgPath string) map[string]bool {
	t.Helper()
	dir := filepath.Join("..", "..", strings.TrimPrefix(pkgPath, "versiondb/internal/"))
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("read %s: %v", dir, err)
	}
	fset := token.NewFileSet()
	ids := map[string]bool{}
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, 0)
		if err != nil {
			t.Fatalf("parse %s: %v", name, err)
		}
		for _, d := range f.Decls {
			if gd, ok := d.(*ast.GenDecl); ok && gd.Tok == token.VAR {
				for _, spec := range gd.Specs {
					if vs := spec.(*ast.ValueSpec); isSyncMutexType(vs.Type) {
						for _, n := range vs.Names {
							ids[pkgPath+"."+n.Name] = true
						}
					}
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				if !isSyncMutexType(field.Type) {
					continue
				}
				for _, fname := range field.Names {
					ids[pkgPath+"."+ts.Name.Name+"."+fname.Name] = true
				}
			}
			return true
		})
	}
	return ids
}

func isSyncMutexType(e ast.Expr) bool {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	pkg, ok := sel.X.(*ast.Ident)
	if !ok || pkg.Name != "sync" {
		return false
	}
	return sel.Sel.Name == "Mutex" || sel.Sel.Name == "RWMutex"
}
