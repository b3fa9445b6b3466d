// Command vmslint is the repository's invariant linter: a multichecker
// bundling the custom invariant analyzers (lockorder, lockedcall,
// ctxloop, senterr) with nilness, the one vet-style pass `go vet` does not
// run. Everything `go vet` checks is left to `go vet`. Run it from the
// module root:
//
//	go run ./cmd/vmslint ./...
//
// It prints diagnostics as file:line:col: message (analyzer) and exits
// non-zero if any are found, so CI can gate on it.
package main

import (
	"versiondb/internal/analysis"
	"versiondb/internal/analysis/ctxloop"
	"versiondb/internal/analysis/lockedcall"
	"versiondb/internal/analysis/lockorder"
	"versiondb/internal/analysis/senterr"
	"versiondb/internal/analysis/vetlite"
)

func main() {
	analysis.Main(
		lockorder.Analyzer,
		lockedcall.Analyzer,
		ctxloop.Analyzer,
		senterr.Analyzer,
		vetlite.Nilness,
	)
}
