package experiments

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestCommittedSweepRows is the byte-identity oracle for the committed
// sweep artifacts: it regenerates the -small routing, autoscale, SLO and
// chaos sweeps at prefillbench's default seed and requires each sweep's
// rows to equal, byte for byte, the "rows" array of the matching
// BENCH_*.json at the repository root. The wall-clock "executor" block is
// ignored. A change that moves any modelled result fails here until the
// artifacts are regenerated with the CI benchmark-smoke commands.
func TestCommittedSweepRows(t *testing.T) {
	const seed = 1 // prefillbench -seed default
	cases := []struct {
		name string
		run  func() (any, error)
	}{
		{"routing", func() (any, error) { rows, _, err := RoutingSweepParallel(seed, true, 2); return rows, err }},
		{"autoscale", func() (any, error) { rows, _, err := AutoscaleSweepParallel(seed, true, 2); return rows, err }},
		{"slo", func() (any, error) { rows, _, err := SLOSweepParallel(seed, true, 2); return rows, err }},
		{"chaos", func() (any, error) { rows, _, err := ChaosSweepParallel(seed, true, 2); return rows, err }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			raw, err := os.ReadFile(filepath.Join("..", "..", "BENCH_"+c.name+".json"))
			if err != nil {
				t.Fatal(err)
			}
			var committed struct {
				Rows json.RawMessage `json:"rows"`
			}
			if err := json.Unmarshal(raw, &committed); err != nil {
				t.Fatal(err)
			}
			var want bytes.Buffer
			if err := json.Compact(&want, committed.Rows); err != nil {
				t.Fatal(err)
			}
			rows, err := c.run()
			if err != nil {
				t.Fatal(err)
			}
			if got := mustJSON(t, rows); !bytes.Equal(got, want.Bytes()) {
				t.Fatalf("regenerated rows differ from BENCH_%s.json:\ngot:       %s\ncommitted: %s", c.name, got, want.Bytes())
			}
		})
	}
}
