package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sync"
	"time"
)

// tracer records spans around the benchmark's calls into the program. It
// keeps them in memory and writes them out once, at the end, as Chrome
// trace-event JSON (loadable in Perfetto). A nil *tracer records nothing,
// which is how the timed runs stay untraced.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	// profiles holds one CPU profile per profiled region.
	profiles [][]byte
	prof     *bytes.Buffer
}

type span struct {
	name       string
	id, parent int // parent is 0 for a root span
	start, end time.Duration
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent (0 for none) and returns its ID.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, id: len(t.spans) + 1, parent: parent, start: now})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].end = now
}

// startProfile starts the CPU profile of one region of calls into the
// program; stopProfile ends it and keeps the profile.
func (t *tracer) startProfile() error {
	if t == nil {
		return nil
	}
	buf := new(bytes.Buffer)
	if err := pprof.StartCPUProfile(buf); err != nil {
		return err
	}
	t.prof = buf
	return nil
}

func (t *tracer) stopProfile() {
	if t == nil || t.prof == nil {
		return
	}
	pprof.StopCPUProfile()
	t.profiles = append(t.profiles, t.prof.Bytes())
	t.prof = nil
}

// write stores the spans as Chrome trace events under path.
func (t *tracer) write(path string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	t.mu.Lock()
	events := make([]event, len(t.spans))
	for i, s := range t.spans {
		events[i] = event{
			Name: s.name, Ph: "X", Pid: 1, Tid: 1,
			Ts:   float64(s.start) / float64(time.Microsecond),
			Dur:  float64(s.end-s.start) / float64(time.Microsecond),
			Args: map[string]int{"id": s.id, "parent": s.parent},
		}
	}
	t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(map[string]any{"traceEvents": events})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
