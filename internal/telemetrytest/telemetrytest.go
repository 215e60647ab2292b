// Package telemetrytest holds the telemetry golden tests' shared
// helpers: a compare-or-rewrite check against testdata/telemetry and a
// byte-stable rendering of a recorder's sampled gauges. Importing it
// registers the -update-telemetry test flag.
package telemetrytest

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/trace"
)

var update = flag.Bool("update-telemetry", false,
	"rewrite the telemetry goldens under testdata/telemetry")

// Check compares got with testdata/telemetry/name (relative to the test's
// package directory), or rewrites the file under -update-telemetry.
func Check(t testing.TB, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "telemetry", name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s differs from the committed golden (rerun with -update-telemetry only for an intended change):\ngot %d bytes, want %d", path, len(got), len(want))
	}
}

// GaugeLines renders the recorder's sampled gauge spans (load, cache and
// pool) one per line with exact float formatting. A recorder that
// dropped spans fails the test: the golden needs the whole run.
func GaugeLines(t testing.TB, rec *trace.Recorder) []byte {
	t.Helper()
	if rec.Dropped() != 0 {
		t.Fatalf("flight recorder dropped %d spans; the golden needs the whole run", rec.Dropped())
	}
	g := func(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }
	var buf bytes.Buffer
	for _, s := range rec.Spans() {
		switch s.Kind {
		case trace.KindLoadGauge, trace.KindCacheGauge, trace.KindPoolGauge:
			fmt.Fprintf(&buf, "%s inst=%d t=%s a=%s b=%s\n", s.Kind, s.Inst, g(s.Start), g(s.A), g(s.B))
		}
	}
	return buf.Bytes()
}
