package experiments

import (
	"bytes"
	"testing"

	"repro/internal/telemetrytest"
)

// telemetryRoutingConfig is the instrumented -small routing run.
func telemetryRoutingConfig(t *testing.T) RoutingRunConfig {
	t.Helper()
	rc, err := InstrumentedRoutingConfig(1, true)
	if err != nil {
		t.Fatal(err)
	}
	return rc
}

// TestTelemetryGolden pins the routing run's exported time series and its
// sampled trace gauges byte for byte: a refactor of how fleets are
// assembled or sampled must leave both unchanged.
func TestTelemetryGolden(t *testing.T) {
	t.Run("routing-timeseries", func(t *testing.T) {
		_, ts, err := TimeseriesRoutingRun(telemetryRoutingConfig(t), 0)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := ts.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		telemetrytest.Check(t, "routing_timeseries.json", buf.Bytes())
	})
	t.Run("routing-trace-gauges", func(t *testing.T) {
		_, rec, err := TracedRoutingRun(telemetryRoutingConfig(t), 0)
		if err != nil {
			t.Fatal(err)
		}
		telemetrytest.Check(t, "routing_trace_gauges.txt", telemetrytest.GaugeLines(t, rec))
	})
}
