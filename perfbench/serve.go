package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	prefillonly "repro"
	"repro/internal/server"
	"repro/internal/tokenizer"
)

// Serving workload shape. The light rate is about a quarter of the
// in-process HTTP capacity on a 2-CPU host and the overload rate about
// one and a half times it, so the first phase measures latency without a
// backlog and the second measures capacity.
const (
	serveUsers        = 64
	serveZipf         = 1.4
	serveProfileWords = 1500
	servePostWords    = 40
	serveLightRPS     = 400
	serveOverloadRPS  = 3000
	serveInstances    = 4
	serveMaxInputLen  = 8000
	serveSetupReps    = 101
	// serveMaxInflight bounds the requests in flight, so an overloaded
	// server costs memory in proportion to this rather than to the run
	// length; once it is reached the generator runs late, and the
	// lateness is reported.
	serveMaxInflight = 256
	serveSpeedup     = 1000 // the server's default: modelled seconds per wall second
)

// vocabulary is the word list prompts are drawn from: lowercase words of
// 3 to 10 letters, so no prompt needs JSON escaping.
var vocabulary = func() []string {
	rng := rand.New(rand.NewSource(0x5eed))
	words := make([]string, 4096)
	for i := range words {
		b := make([]byte, 3+rng.Intn(8))
		for j := range b {
			b[j] = byte('a' + rng.Intn(26))
		}
		words[i] = string(b)
	}
	return words
}()

func words(rng *rand.Rand, n int) string {
	ws := make([]string, n)
	for i := range ws {
		ws[i] = vocabulary[rng.Intn(len(vocabulary))]
	}
	return strings.Join(ws, " ")
}

// serveArrival is one request of an open-loop schedule.
type serveArrival struct {
	due  time.Duration // offset from the phase start
	user int
	post string
}

// poissonSchedule draws arrivals at rate per second for d, each from a
// Zipf-popular user with a fresh post.
func poissonSchedule(seed int64, rate float64, d time.Duration) []serveArrival {
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, serveZipf, 1, serveUsers-1)
	var out []serveArrival
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		if t >= d.Seconds() {
			return out
		}
		out = append(out, serveArrival{
			due:  time.Duration(t * float64(time.Second)),
			user: int(zipf.Uint64()),
			post: words(rng, servePostWords),
		})
	}
}

// serveHTTP posts open-loop Poisson completions into an in-process
// four-instance affinity-routed server: a light phase for latency, then an
// overload phase for capacity.
type serveHTTP struct {
	profiles        []string // per user
	light, overload []serveArrival
}

func newServeHTTP(seed int64, budget time.Duration) *serveHTTP {
	rng := rand.New(rand.NewSource(seed))
	w := &serveHTTP{profiles: make([]string, serveUsers)}
	for u := range w.profiles {
		w.profiles[u] = words(rng, serveProfileWords)
	}
	w.light = poissonSchedule(seed+1, serveLightRPS, budget/2)
	w.overload = poissonSchedule(seed+2, serveOverloadRPS, budget/2)
	return w
}

func (w *serveHTTP) prompt(a serveArrival) string {
	return "You rank posts for one user. User profile: " + w.profiles[a.user] +
		". New post: " + a.post + ". Should this post be recommended to the user? Answer:"
}

func (w *serveHTTP) body(a serveArrival) []byte {
	return completionBody("u"+strconv.Itoa(a.user), w.prompt(a))
}

// phaseResult is the outcome of one load phase.
type phaseResult struct {
	name        string
	sent, ok    int
	unsent      int // due after the phase's time limit
	problems    []string
	wallMS      []float64 // wall latency from due time, successes only
	simS        []float64 // modelled latency, successes only
	overheadMS  []float64 // wall minus modelled latency / speedup
	lateMax     time.Duration
	wall        time.Duration   // phase start to the last completion
	done        []time.Duration // completion offsets from the phase start, successes only
	mallocs     uint64
	prompt, hit int64 // prompt and cached tokens, successes only
	estimates   [][2]int
}

type reqOutcome struct {
	late, wall time.Duration
	done       time.Duration // completion offset from the phase start
	resp       server.CompletionResponse
	problem    string
}

// phase runs one open-loop schedule against h for at most limit. Each
// request is timed from its due time, so a generator stall counts against
// the server. Arrivals the generator reaches only after limit are not
// sent: an overloaded server sets the phase length, not the schedule.
func (w *serveHTTP) phase(name string, h http.Handler, sched []serveArrival, limit time.Duration, tr *tracer) *phaseResult {
	parent := tr.begin("phase", 0)
	defer tr.end(parent)
	out := make([]reqOutcome, len(sched))
	sem := make(chan struct{}, serveMaxInflight)
	var wg sync.WaitGroup
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for i, a := range sched {
		due := start.Add(a.due)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		sem <- struct{}{}
		if time.Since(start) >= limit {
			<-sem
			out = out[:i]
			break
		}
		out[i].late = time.Since(due)
		wg.Add(1)
		go func(o *reqOutcome, a serveArrival, due time.Time) {
			defer wg.Done()
			defer func() { <-sem }()
			sp := tr.begin("request", parent)
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/completions", bytes.NewReader(w.body(a))))
			o.wall = time.Since(due)
			o.done = time.Since(start)
			tr.end(sp)
			o.problem = checkResponse(rec, &o.resp)
		}(&out[i], a, due)
	}
	wg.Wait()
	p := &phaseResult{name: name, sent: len(out), unsent: len(sched) - len(out), wall: time.Since(start)}
	runtime.ReadMemStats(&m1)
	p.mallocs = m1.Mallocs - m0.Mallocs
	for _, o := range out {
		p.lateMax = max(p.lateMax, o.late)
		if o.problem != "" {
			if len(p.problems) < 10 {
				p.problems = append(p.problems, name+": "+o.problem)
			}
			continue
		}
		p.ok++
		wallMS := float64(o.wall) / float64(time.Millisecond)
		p.wallMS = append(p.wallMS, wallMS)
		p.simS = append(p.simS, o.resp.SimLatencySeconds)
		p.overheadMS = append(p.overheadMS, wallMS-o.resp.SimLatencySeconds/serveSpeedup*1e3)
		p.prompt += int64(o.resp.Usage.PromptTokens)
		p.hit += int64(o.resp.CachedTokens)
		p.estimates = append(p.estimates, [2]int{o.resp.Usage.PromptTokens, o.resp.CachedTokens})
		p.done = append(p.done, o.done)
	}
	return p
}

// capacityWindows is how many equal windows of an overload phase its
// capacity is the median of, so a few seconds of interference from other
// tenants of the host move the figure less.
const capacityWindows = 5

// capacity is the median over capacityWindows equal windows of the first
// limit of the phase of the completions per wall-second in each.
func (p *phaseResult) capacity(limit time.Duration) float64 {
	width := limit / capacityWindows
	counts := make([]float64, capacityWindows)
	for _, d := range p.done {
		if i := int(d / width); i < capacityWindows {
			counts[i]++
		}
	}
	for i := range counts {
		counts[i] /= width.Seconds()
	}
	return median(counts)
}

// checkResponse decodes one reply into resp and returns what is wrong
// with it, or "" for a valid completion: status 200, one choice whose
// token is in the allowed set and is the argmax of scores over exactly the
// allowed set that sum to 1, and consistent token accounting.
func checkResponse(rec *httptest.ResponseRecorder, resp *server.CompletionResponse) string {
	if rec.Code != http.StatusOK {
		return fmt.Sprintf("status %d: %s", rec.Code, strings.TrimSpace(rec.Body.String()))
	}
	if err := json.Unmarshal(rec.Body.Bytes(), resp); err != nil {
		return "undecodable body: " + err.Error()
	}
	if len(resp.Choices) != 1 {
		return fmt.Sprintf("%d choices", len(resp.Choices))
	}
	c := resp.Choices[0]
	if len(c.TokenScores) != len(replayAllowed) {
		return fmt.Sprintf("scores over %d tokens, want %d", len(c.TokenScores), len(replayAllowed))
	}
	sum, best := 0.0, ""
	for _, t := range replayAllowed {
		p, ok := c.TokenScores[t]
		if !ok {
			return "no score for allowed token " + t
		}
		sum += p
		if best == "" || p > c.TokenScores[best] {
			best = t
		}
	}
	switch {
	case math.Abs(sum-1) > 1e-9:
		return fmt.Sprintf("scores sum to %.12g", sum)
	case c.TokenScores[c.Text] != c.TokenScores[best] || (c.Text != "Yes" && c.Text != "No"):
		return fmt.Sprintf("token %q is not the allowed argmax %q", c.Text, best)
	case resp.Usage.PromptTokens <= 0 || resp.Usage.PromptTokens > serveMaxInputLen:
		return fmt.Sprintf("%d prompt tokens", resp.Usage.PromptTokens)
	case resp.CachedTokens < 0 || resp.CachedTokens > resp.Usage.PromptTokens:
		return fmt.Sprintf("%d cached of %d prompt tokens", resp.CachedTokens, resp.Usage.PromptTokens)
	case !(resp.SimLatencySeconds > 0):
		return fmt.Sprintf("modelled latency %g", resp.SimLatencySeconds)
	}
	return ""
}

// newServer builds the server serveSetupReps times, closes all but the
// last, and returns it with the median build time.
func newServer(tr *tracer) (*prefillonly.Server, time.Duration, error) {
	runtime.GC()
	sp := tr.begin("setup", 0)
	defer tr.end(sp)
	var srv *prefillonly.Server
	times := make([]float64, serveSetupReps)
	for i := range times {
		if srv != nil {
			srv.Close()
		}
		t0 := time.Now()
		var err error
		srv, err = prefillonly.NewServer(prefillonly.ServerConfig{
			Instances:     serveInstances,
			RoutingPolicy: "affinity",
			MaxInputLen:   serveMaxInputLen,
			Speedup:       serveSpeedup,
		})
		times[i] = time.Since(t0).Seconds()
		if err != nil {
			return nil, 0, err
		}
	}
	return srv, time.Duration(median(times) * float64(time.Second)), nil
}

// prefix returns the arrivals due before d.
func prefix(s []serveArrival, d time.Duration) []serveArrival {
	n := 0
	for n < len(s) && s[n].due < d {
		n++
	}
	return s[:n]
}

func (w *serveHTTP) account(res *result, phases ...*phaseResult) {
	for _, p := range phases {
		res.attempted += p.sent
		res.failed += p.sent - p.ok
		res.problems = append(res.problems, p.problems...)
		res.report = append(res.report, fmt.Sprintf(
			"phase %s sent=%d succeeded=%d failed=%d unsent=%d wall=%.3fs loadgen_late_max=%.3fms",
			p.name, p.sent, p.ok, p.sent-p.ok, p.unsent, p.wall.Seconds(), float64(p.lateMax)/float64(time.Millisecond)))
	}
}

func (w *serveHTTP) timed(budget time.Duration) (*result, error) {
	srv, setup, err := newServer(nil)
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	h := srv.Handler()
	light := w.phase("light", h, w.light, budget/2, nil)
	over := w.phase("overload", h, w.overload, budget/2, nil)
	res := &result{metrics: map[string]float64{}}
	w.account(res, light, over)
	m := res.metrics
	m["setup_s"] = setup.Seconds()
	m["req_per_wall_s"] = over.capacity(budget / 2)
	m["allocs_per_req"] = float64(light.mallocs+over.mallocs) / float64(light.sent+over.sent)
	m["peak_rss_mb"] = peakRSSMB()
	m["completed_ratio"] = float64(light.ok+over.ok) / float64(light.sent+over.sent)
	return res, nil
}

// traced runs both phases on the first half of each schedule untraced,
// then again under the CPU profile with spans recorded.
func (w *serveHTTP) traced(budget time.Duration, tr *tracer) (*result, error) {
	light, over := prefix(w.light, budget/4), prefix(w.overload, budget/4)
	srv, _, err := newServer(nil)
	if err != nil {
		return nil, err
	}
	baseLight := w.phase("light-untraced", srv.Handler(), light, budget/4, nil)
	baseOver := w.phase("overload-untraced", srv.Handler(), over, budget/4, nil)
	srv.Close()

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if err := tr.startProfile(); err != nil {
		return nil, err
	}
	srv, setup, err := newServer(tr)
	if err != nil {
		tr.stopProfile()
		return nil, err
	}
	defer srv.Close()
	tLight := w.phase("light", srv.Handler(), light, budget/4, tr)
	tOver := w.phase("overload", srv.Handler(), over, budget/4, tr)
	tr.stopProfile()
	runtime.ReadMemStats(&m1)

	res := &result{metrics: map[string]float64{}}
	w.account(res, baseLight, baseOver, tLight, tOver)
	m := res.metrics
	if err := addCPUShares(m, tr.profiles); err != nil {
		return nil, err
	}
	m["setup.s"] = setup.Seconds()
	m["run.s"] = (tLight.wall + tOver.wall).Seconds()
	m["serve.wall_p50_ms"] = percentile(tLight.wallMS, 50)
	if m["serve.wall_p99_ms"], err = tail(tLight.wallMS, 99, "wall latency"); err != nil {
		return nil, err
	}
	m["modelled.jct_p50_s"] = percentile(tLight.simS, 50)
	if m["modelled.jct_p99_s"], err = tail(tLight.simS, 99, "modelled latency"); err != nil {
		return nil, err
	}
	m["modelled.shed_ratio"] = 1 - float64(tLight.ok+tOver.ok)/float64(tLight.sent+tOver.sent)
	m["serve.overhead_ms_p50"] = percentile(tLight.overheadMS, 50)
	m["loadgen.late_ms_max"] = float64(max(tLight.lateMax, tOver.lateMax)) / float64(time.Millisecond)
	if n := tLight.prompt + tOver.prompt; n > 0 {
		m["kvcache.hit_ratio"] = float64(tLight.hit+tOver.hit) / float64(n)
	}
	stats := srv.Stats()
	var routed []int64
	for _, in := range stats.Instances {
		routed = append(routed, in.RoutedTokens)
	}
	m["router.balance_ratio"] = balanceRatio(routed)
	for _, byClass := range stats.RejectReasons {
		for _, byReason := range byClass {
			for reason, n := range byReason {
				m["router.rejected."+reason] += float64(n)
			}
		}
	}
	m["gc.cycles"] = float64(m1.NumGC - m0.NumGC)
	m["gc.pause_ms"] = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6
	// The overload phase saturates the host, so the overhead of tracing
	// is the untraced capacity over the traced one.
	m["trace.overhead_ratio"] = baseOver.capacity(budget/4) / tOver.capacity(budget/4)

	c := replayCorpus{estimates: append(tLight.estimates, tOver.estimates...)}
	tok := tokenizer.New()
	for _, a := range light[:min(len(light), replayRequests)] {
		text := w.prompt(a)
		c.texts = append(c.texts, text)
		c.tokens = append(c.tokens, tok.Encode(text))
		c.bodies = append(c.bodies, w.body(a))
	}
	c.estimates = c.estimates[:min(len(c.estimates), replayEstimates)]
	replay(tr, m, c)
	return res, nil
}
