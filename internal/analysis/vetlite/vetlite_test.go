package vetlite_test

import (
	"testing"

	"versiondb/internal/analysis"
	"versiondb/internal/analysis/vetlite"
)

func TestNilness(t *testing.T) {
	analysis.TestAnalyzer(t, "testdata", vetlite.Nilness, "nn")
}
