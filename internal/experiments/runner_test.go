package experiments

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

func TestRunCellsIndexOrder(t *testing.T) {
	for _, parallel := range []int{1, 4, 16} {
		out, stats, err := runCells(parallel, 37, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range out {
			if v != i*i {
				t.Fatalf("parallel=%d: out[%d] = %d, want %d", parallel, i, v, i*i)
			}
		}
		if stats.Cells != 37 {
			t.Fatalf("stats.Cells = %d", stats.Cells)
		}
		if stats.WallSeconds < 0 || stats.SerialEquivalentSeconds < 0 {
			t.Fatalf("negative timing: %+v", stats)
		}
	}
}

func TestRunCellsPropagatesError(t *testing.T) {
	boom := errors.New("boom")
	for _, parallel := range []int{1, 4} {
		_, _, err := runCells(parallel, 10, func(i int) (int, error) {
			if i == 7 {
				return 0, fmt.Errorf("cell %d: %w", i, boom)
			}
			return i, nil
		})
		if !errors.Is(err, boom) {
			t.Fatalf("parallel=%d: err = %v, want wrapped boom", parallel, err)
		}
	}
}

func TestRunCellsSerialStopsAtFirstError(t *testing.T) {
	var ran atomic.Int64
	_, _, err := runCells(1, 10, func(i int) (int, error) {
		ran.Add(1)
		if i == 2 {
			return 0, errors.New("stop")
		}
		return i, nil
	})
	if err == nil {
		t.Fatal("error swallowed")
	}
	if ran.Load() != 3 {
		t.Fatalf("serial path ran %d cells after failure at cell 2", ran.Load())
	}
}

func TestRunCellsZeroCells(t *testing.T) {
	out, stats, err := runCells(4, 0, func(i int) (int, error) { return 0, nil })
	if err != nil || len(out) != 0 || stats.Cells != 0 {
		t.Fatalf("out=%v stats=%+v err=%v", out, stats, err)
	}
}

func TestCellStatsMerge(t *testing.T) {
	a := CellStats{Cells: 2, Parallelism: 1, WallSeconds: 1, SerialEquivalentSeconds: 1, AllocsPerCell: 10}
	b := CellStats{Cells: 6, Parallelism: 4, WallSeconds: 1, SerialEquivalentSeconds: 3, AllocsPerCell: 20}
	m := a.Merge(b)
	if m.Cells != 8 || m.Parallelism != 4 {
		t.Fatalf("merge: %+v", m)
	}
	if m.WallSeconds != 2 || m.SerialEquivalentSeconds != 4 || m.Speedup != 2 {
		t.Fatalf("merge timing: %+v", m)
	}
	if want := (10.0*2 + 20.0*6) / 8; m.AllocsPerCell != want {
		t.Fatalf("merge allocs: %v, want %v", m.AllocsPerCell, want)
	}
}

// mustJSON marshals rows for byte-level comparison.
func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	buf, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// TestRoutingSweepParallelOracle is the ISSUE-5 determinism oracle for the
// routing sweep: fanning the cells across 4 workers must produce rows
// byte-identical to the serial executor — parallelism may change wall
// clock, never output.
func TestRoutingSweepParallelOracle(t *testing.T) {
	serialRows, _, err := RoutingSweepParallel(1, true, 1)
	if err != nil {
		t.Fatal(err)
	}
	parRows, stats, err := RoutingSweepParallel(1, true, 4)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("executor: %d cells, wall %.2fs, serial-equivalent %.2fs, speedup %.2fx",
		stats.Cells, stats.WallSeconds, stats.SerialEquivalentSeconds, stats.Speedup)
	a, b := mustJSON(t, serialRows), mustJSON(t, parRows)
	if string(a) != string(b) {
		t.Fatalf("parallel routing sweep diverged from serial:\nserial:   %s\nparallel: %s", a, b)
	}
}

// TestSLOSweepParallelOracle is the determinism oracle for the SLO sweep.
func TestSLOSweepParallelOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run sweep with profile runs")
	}
	serialRows, _, err := SLOSweepParallel(1, true, 1)
	if err != nil {
		t.Fatal(err)
	}
	parRows, _, err := SLOSweepParallel(1, true, 4)
	if err != nil {
		t.Fatal(err)
	}
	a, b := mustJSON(t, serialRows), mustJSON(t, parRows)
	if string(a) != string(b) {
		t.Fatalf("parallel slo sweep diverged from serial:\nserial:   %s\nparallel: %s", a, b)
	}
}

// TestAutoscaleSweepParallelOracle covers the sweep whose rows carry the
// most interleaving-sensitive state (controller activity, GPU-seconds).
func TestAutoscaleSweepParallelOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run sweep with profile runs")
	}
	serialRows, _, err := AutoscaleSweepParallel(1, true, 1)
	if err != nil {
		t.Fatal(err)
	}
	parRows, _, err := AutoscaleSweepParallel(1, true, 3)
	if err != nil {
		t.Fatal(err)
	}
	a, b := mustJSON(t, serialRows), mustJSON(t, parRows)
	if string(a) != string(b) {
		t.Fatalf("parallel autoscale sweep diverged from serial:\nserial:   %s\nparallel: %s", a, b)
	}
}

func TestKernelBench(t *testing.T) {
	res, err := KernelBench(100_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Events < 99_000 {
		t.Fatalf("events = %d", res.Events)
	}
	if res.FastPathEventsPerSec <= 0 || res.ClosureEventsPerSec <= 0 {
		t.Fatalf("degenerate throughput: %+v", res)
	}
	// The fast path exists to eliminate per-event allocations; the closure
	// path allocates at least the closure per event.
	if res.FastPathAllocsPerEvent >= res.ClosureAllocsPerEvent {
		t.Fatalf("fast path allocates %.2f/event vs closure %.2f/event",
			res.FastPathAllocsPerEvent, res.ClosureAllocsPerEvent)
	}
	if res.FastPathAllocsPerEvent > 0.05 {
		t.Fatalf("fast path allocates %.3f/event, want ~0", res.FastPathAllocsPerEvent)
	}
	if res.HostCPUs <= 0 || res.GoVersion == "" {
		t.Fatalf("missing provenance: %+v", res)
	}
	if _, err := KernelBench(3); err == nil {
		t.Fatal("tiny event count accepted")
	}
}
