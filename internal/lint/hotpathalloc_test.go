package lint_test

import (
	"testing"

	"repro/internal/lint"
	"repro/internal/lint/linttest"
)

func TestHotPathAllocFixture(t *testing.T) {
	diags := linttest.Run(t, "testdata", lint.HotPathAlloc, "hotpathalloc/internal/engine")
	if len(diags) == 0 {
		t.Fatal("hotpathalloc produced no diagnostics on its true-positive fixture")
	}
}

func TestHotPathAllocScopedToEngineSched(t *testing.T) {
	diags := linttest.Run(t, "testdata", lint.HotPathAlloc, "hotpathalloc/internal/router")
	if len(diags) != 0 {
		t.Fatalf("hotpathalloc flagged a router-side closure outside engine/sched: %v", diags)
	}
}
