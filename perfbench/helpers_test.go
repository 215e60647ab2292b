package main

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"os"
	"reflect"
	"runtime/pprof"
	"sort"
	"strings"
	"testing"
	"time"

	prefillonly "repro"
	"repro/internal/kvcache"
	"repro/internal/server"
)

func TestTailPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {39, 50}, {40, 75}, {100, 90}, {199, 90},
		{200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
	xs := make([]float64, 999)
	if _, err := tail(xs, 99, "x"); err == nil {
		t.Error("tail accepted p99 of 999 samples")
	}
	xs = make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(1000 - i)
	}
	if got, err := tail(xs, 99, "x"); err != nil || got != 990 {
		t.Errorf("tail p99 of 1..1000 = %g, %v; want 990", got, err)
	}
}

func TestPercentileAndMedian(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i)
	}
	if got := percentile(xs, 50); got != 50 {
		t.Errorf("p50 = %g, want 50", got)
	}
	if got := percentile(xs, 100); got != 100 {
		t.Errorf("p100 = %g, want 100", got)
	}
	if got := median([]float64{3, 1, 2, 4}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("p50 of nothing = %g", got)
	}
}

func TestAttributeInnermostModule(t *testing.T) {
	for _, c := range []struct {
		stack []string // innermost first
		want  string
	}{
		{[]string{"runtime.mapaccess2_fast64", "repro/internal/kvcache.(*Manager).Lookup", "repro/internal/core.(*Engine).dispatch", "main.runCell"}, "kvcache"},
		{[]string{"repro/internal/kvcache.mix", "repro/internal/kvcache.BlockHashes", "repro/internal/sched.(*Calibrated).key"}, "hash"},
		{[]string{"runtime.mallocgc", "runtime.newobject", "repro/internal/core.New"}, "engine"},
		{[]string{"runtime.gcAssistAlloc", "runtime.mallocgc", "repro/internal/router.(*Router).Submit"}, "router"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, "gc"},
		{[]string{"runtime._GC"}, "gc"},
		{[]string{"runtime.futex", "runtime.findRunnable", "runtime.schedule"}, "runtime"},
		{[]string{"encoding/json.(*decodeState).object", "repro/internal/server.(*Handler).completions"}, "server"},
		{[]string{"repro.(*Simulation).submit", "repro/internal/sim.(*Sim).Run"}, "facade"},
		{[]string{"strings.Join", "main.words", "main.main"}, "harness"},
		{[]string{"repro/perfbench.busy"}, "harness"},
		{[]string{"repro/internal/timeseries.(*Collector).Arrival"}, "other"},
		{[]string{"repro/internal/lint/linttest.Run"}, "other"},
		{[]string{"syscall.Syscall6"}, "other"},
	} {
		if got := attribute(c.stack); got != c.want {
			t.Errorf("attribute(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
}

// busy spends its time in kvcache.BlockHashes.
func busy(d time.Duration) int {
	toks := make([]uint64, 1<<14)
	n := 0
	for t0 := time.Now(); time.Since(t0) < d; {
		n += len(kvcache.BlockHashes(toks, 16))
	}
	return n
}

func TestCPUSharesOfRealProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	sink += busy(500 * time.Millisecond)
	pprof.StopCPUProfile()
	shares, samples, err := cpuShares([][]byte{buf.Bytes()})
	if err != nil {
		t.Fatal(err)
	}
	if samples < 10 {
		t.Skipf("only %d samples", samples)
	}
	sum := 0.0
	for _, s := range shares {
		sum += s
	}
	if sum < 0.999 || sum > 1.001 {
		t.Errorf("shares sum to %g", sum)
	}
	if shares["hash"] < 0.5 {
		t.Errorf("hash share %g of %d samples, want most of them (%v)", shares["hash"], samples, shares)
	}
}

func TestServeInputsDeterministicPerSeed(t *testing.T) {
	a, b := newServeHTTP(7, 4*time.Second), newServeHTTP(7, 4*time.Second)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different serving inputs")
	}
	if c := newServeHTTP(8, 4*time.Second); reflect.DeepEqual(a.light, c.light) || reflect.DeepEqual(a.profiles, c.profiles) {
		t.Fatal("different seeds gave the same serving inputs")
	}
	for _, s := range [][]serveArrival{a.light, a.overload} {
		if !sort.SliceIsSorted(s, func(i, j int) bool { return s[i].due < s[j].due }) {
			t.Fatal("schedule not in due order")
		}
		if last := s[len(s)-1].due; last >= 2*time.Second {
			t.Fatalf("arrival due at %v, past the 2s phase", last)
		}
	}
	// About rate × duration arrivals, within a generous Poisson margin.
	if n := len(a.light); n < serveLightRPS*2*8/10 || n > serveLightRPS*2*12/10 {
		t.Errorf("%d light arrivals in 2s at %d/s", n, serveLightRPS)
	}
	var req server.CompletionRequest
	if err := json.Unmarshal(a.body(a.light[0]), &req); err != nil {
		t.Fatal(err)
	}
	if req.Prompt != a.prompt(a.light[0]) || req.MaxTokens != 1 || req.User == "" {
		t.Errorf("body decodes to %+v", req)
	}
}

func TestSimInputsDeterministicPerSeed(t *testing.T) {
	if subSeed(5, 0) != 5 || subSeed(5, 1) == subSeed(6, 1) {
		t.Fatal("sub-seeds must start at the seed and differ between seeds")
	}
	tokens := func(d *prefillonly.Dataset) [][]uint64 {
		var out [][]uint64
		for _, r := range d.Requests {
			out = append(out, r.Tokens)
		}
		return out
	}
	w := &classMixElastic{seed: 3}
	if !reflect.DeepEqual(tokens(w.dataset(1)), tokens(w.dataset(1))) {
		t.Fatal("same sub-seed gave different class-mix prompts")
	}
	if reflect.DeepEqual(tokens(w.dataset(0)), tokens(w.dataset(1))) {
		t.Fatal("different sub-seeds gave the same class-mix prompts")
	}
	arrivals := func() []float64 {
		ds := (&sweepRouting{seed: 3}).datasets(0)[0]
		arr, err := prefillonly.AssignPoissonArrivals(ds, 10, subSeed(3, 0))
		if err != nil {
			t.Fatal(err)
		}
		var ts []float64
		for _, a := range arr {
			ts = append(ts, a.Time)
		}
		return ts
	}
	if !reflect.DeepEqual(arrivals(), arrivals()) {
		t.Fatal("same seed gave different sweep arrivals")
	}
}

func TestCheckRecordsCountsViolations(t *testing.T) {
	reqs := []*prefillonly.Request{
		{ID: 1, Tokens: make([]uint64, 10)},
		{ID: 2, Tokens: make([]uint64, 10)},
		{ID: 3, Tokens: make([]uint64, 10)},
	}
	good := []prefillonly.Record{
		{Req: reqs[0], Arrival: 0, Start: 1, Finish: 2, CachedTokens: 10},
		{Req: reqs[1], Arrival: 0, Start: 0, Finish: 0},
	}
	p := &simPass{}
	checkRecords("ok", reqs, good, 1, p)
	if p.failed != 0 {
		t.Fatalf("valid records failed: %v", p.problems)
	}
	bad := []prefillonly.Record{
		{Req: reqs[0], Arrival: 1, Start: 0, Finish: 2},                   // starts before it arrives
		{Req: reqs[1], Arrival: 0, Start: 1, Finish: 2, CachedTokens: 11}, // more cached than its length
		{Req: reqs[1], Arrival: 0, Start: 1, Finish: 2},                   // completes twice
	}
	p = &simPass{}
	checkRecords("bad", reqs, bad, 1, p) // 3 + 1 != 3 offered
	if p.failed != 4 {
		t.Fatalf("failed = %d, want 4: %v", p.failed, p.problems)
	}
}

func TestCheckResponse(t *testing.T) {
	reply := func(status int, resp server.CompletionResponse) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		rec.WriteHeader(status)
		if err := json.NewEncoder(rec).Encode(resp); err != nil {
			t.Fatal(err)
		}
		return rec
	}
	valid := func() server.CompletionResponse {
		return server.CompletionResponse{
			Choices:           []server.CompletionChoice{{Text: "No", TokenScores: map[string]float64{"Yes": 0.25, "No": 0.75}}},
			Usage:             server.CompletionUsage{PromptTokens: 100},
			CachedTokens:      64,
			SimLatencySeconds: 0.1,
		}
	}
	var out server.CompletionResponse
	if p := checkResponse(reply(200, valid()), &out); p != "" {
		t.Fatalf("valid reply rejected: %s", p)
	}
	for name, mutate := range map[string]func(*server.CompletionResponse){
		"not argmax":   func(r *server.CompletionResponse) { r.Choices[0].Text = "Yes" },
		"not allowed":  func(r *server.CompletionResponse) { r.Choices[0].Text = "Maybe" },
		"sum":          func(r *server.CompletionResponse) { r.Choices[0].TokenScores["No"] = 0.7 },
		"two choices":  func(r *server.CompletionResponse) { r.Choices = append(r.Choices, r.Choices[0]) },
		"extra score":  func(r *server.CompletionResponse) { r.Choices[0].TokenScores["Maybe"] = 0 },
		"cached>total": func(r *server.CompletionResponse) { r.CachedTokens = 101 },
	} {
		r := valid()
		mutate(&r)
		if p := checkResponse(reply(200, r), &out); p == "" {
			t.Errorf("%s: invalid reply accepted", name)
		}
	}
	if p := checkResponse(reply(429, valid()), &out); !strings.Contains(p, "429") {
		t.Errorf("429 reply: %q", p)
	}
}

func TestDigestIsOrderSensitive(t *testing.T) {
	a, b := newDigest(), newDigest()
	a.add(1, 2)
	b.add(2, 1)
	if a.sum() == b.sum() {
		t.Fatal("digest ignores order")
	}
}

// TestBenchmarkJSONMatchesMetricTables keeps BENCHMARK.json and the
// metrics the command prints in step.
func TestBenchmarkJSONMatchesMetricTables(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json: %v", err)
	}
	type metric struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d printed", what, len(got), len(want))
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s %s, command prints %s %s",
					what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the command", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is unknown to the command", w.Name)
		}
	}
}

// TestServePhaseAgainstServer drives a short light phase into a real
// in-process server from many goroutines; run it with -race.
func TestServePhaseAgainstServer(t *testing.T) {
	w := newServeHTTP(1, 400*time.Millisecond)
	srv, setup, err := newServer(newTracer())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if setup <= 0 {
		t.Errorf("set-up took %v", setup)
	}
	tr := newTracer()
	p := w.phase("light", srv.Handler(), w.light, time.Second, tr)
	if p.sent != len(w.light) || p.ok != p.sent || len(p.problems) != 0 {
		t.Fatalf("sent %d of %d, %d ok: %v", p.sent, len(w.light), p.ok, p.problems)
	}
	if len(p.wallMS) != p.ok || len(p.simS) != p.ok || p.prompt <= 0 {
		t.Fatalf("per-request figures missing: %d wall, %d modelled, %d prompt tokens", len(p.wallMS), len(p.simS), p.prompt)
	}
	if got := len(tr.spans); got != p.sent+1 {
		t.Errorf("%d spans, want one per request plus the phase", got)
	}
}
