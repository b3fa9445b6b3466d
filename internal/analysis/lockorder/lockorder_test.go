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
// struct field declared in internal/{repo,store,jobs,autotune} has a
// rank, so a new lock cannot be added without placing it in the
// hierarchy.
func TestRankTableComplete(t *testing.T) {
	for _, pkg := range []string{"repo", "store", "store/metalog", "store/faultfs", "store/remote", "jobs", "autotune", "replication"} {
		dir := filepath.Join("..", "..", pkg)
		for _, id := range mutexFields(t, dir, "versiondb/internal/"+pkg) {
			if _, ok := lockorder.Ranks[id]; !ok {
				t.Errorf("mutex %s is not in the lockorder rank table; add it to lockorder.Ranks", id)
			}
		}
	}
}

// mutexFields parses the package in dir and returns the lock IDs of all
// struct fields with type sync.Mutex or sync.RWMutex.
func mutexFields(t *testing.T, dir, pkgPath string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("read %s: %v", dir, err)
	}
	fset := token.NewFileSet()
	var ids []string
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, 0)
		if err != nil {
			t.Fatalf("parse %s: %v", name, err)
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
					ids = append(ids, pkgPath+"."+ts.Name.Name+"."+fname.Name)
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
