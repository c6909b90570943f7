package hotpath_test

import (
	"testing"

	"gridsched/internal/lint/analysistest"
	"gridsched/internal/lint/analyzers/hotpath"
)

func TestHotpath(t *testing.T) {
	analysistest.Run(t, "testdata", hotpath.Analyzer,
		"gridsched/internal/heuristics",
		"gridsched/internal/operators",
		"gridsched/internal/coldpkg",
	)
}
