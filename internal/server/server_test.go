package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/hw"
	"repro/internal/model"
)

func testBackend(t *testing.T) *Backend {
	t.Helper()
	b, err := NewBackend(engine.Config{
		Model:         model.Llama31_8B(),
		GPU:           hw.L4(),
		ProfileMaxLen: 4000,
	}, core.Options{}, 1e7) // huge speedup: tests finish instantly
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(b.Close)
	return b
}

func TestScoreProperties(t *testing.T) {
	prompt := []uint64{1, 2, 3}
	s := Score(prompt, []string{"Yes", "No"})
	if len(s) != 2 {
		t.Fatalf("scores = %v", s)
	}
	sum := s["Yes"] + s["No"]
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("probabilities sum to %v", sum)
	}
	// Deterministic.
	s2 := Score(prompt, []string{"No", "Yes"}) // order-insensitive
	if s2["Yes"] != s["Yes"] {
		t.Fatal("score depends on allowed-token order")
	}
	// Prompt-sensitive.
	s3 := Score([]uint64{9, 9, 9}, []string{"Yes", "No"})
	if s3["Yes"] == s["Yes"] {
		t.Fatal("score ignores prompt")
	}
	if Score(prompt, nil) != nil {
		t.Fatal("empty allowed set should yield nil")
	}
}

func TestBackendSubmit(t *testing.T) {
	b := testBackend(t)
	res, err := b.Submit("Here is the user profile: reads systems papers. Should we recommend this post? Answer:", nil, 7)
	if err != nil {
		t.Fatal(err)
	}
	if res.Token != "Yes" && res.Token != "No" {
		t.Fatalf("token = %q", res.Token)
	}
	if res.SimLatency <= 0 {
		t.Fatalf("sim latency = %v", res.SimLatency)
	}
	// Second identical submission hits the prefix cache.
	res2, err := b.Submit("Here is the user profile: reads systems papers. Should we recommend this post? Answer:", nil, 7)
	if err != nil {
		t.Fatal(err)
	}
	if res2.CachedTokens == 0 {
		t.Fatal("repeat prompt saw no cache hit")
	}
	if res2.Scores["Yes"] != res.Scores["Yes"] {
		t.Fatal("same prompt produced different scores")
	}
}

func TestBackendRejectsEmptyPrompt(t *testing.T) {
	b := testBackend(t)
	for _, bos := range []uint64{b.Tokenizer.BOS, 0} {
		b.Tokenizer.BOS = bos
		for _, prompt := range []string{"", " \n\t "} {
			if _, err := b.Submit(prompt, nil, 0); !errors.Is(err, ErrEmptyPrompt) {
				t.Errorf("BOS=%d Submit(%q): err = %v, want ErrEmptyPrompt", bos, prompt, err)
			}
		}
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.nextID != 0 {
		t.Fatalf("%d empty prompts were submitted", b.nextID)
	}
}

func TestBackendCloseUnblocks(t *testing.T) {
	b := testBackend(t)
	b.Close()
	if _, err := b.Submit("hello", nil, 0); err == nil {
		t.Fatal("submit after close accepted")
	}
	b.Close() // idempotent
}

func TestHTTPCompletions(t *testing.T) {
	b := testBackend(t)
	h := NewHandler(b, "prefillonly-test")
	srv := httptest.NewServer(h)
	defer srv.Close()

	const prompt = "Credit history: paid on time for 10 months. Approve this application? Answer:"
	body, _ := json.Marshal(CompletionRequest{
		Model:         "prefillonly-test",
		Prompt:        prompt,
		MaxTokens:     1,
		AllowedTokens: []string{"Approve", "Deny"},
		User:          "user-42",
	})
	resp, err := http.Post(srv.URL+"/v1/completions", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var out CompletionResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Choices) != 1 {
		t.Fatalf("choices = %+v", out.Choices)
	}
	c := out.Choices[0]
	if c.Text != "Approve" && c.Text != "Deny" {
		t.Fatalf("text = %q", c.Text)
	}
	if math.Abs(c.TokenScores["Approve"]+c.TokenScores["Deny"]-1) > 1e-9 {
		t.Fatalf("scores = %v", c.TokenScores)
	}
	if out.Usage.PromptTokens != b.Tokenizer.Count(prompt) || out.Usage.CompletionTokens != 1 {
		t.Fatalf("usage = %+v, want %d prompt tokens", out.Usage, b.Tokenizer.Count(prompt))
	}
}

func TestHTTPValidation(t *testing.T) {
	b := testBackend(t)
	srv := httptest.NewServer(NewHandler(b, "m"))
	defer srv.Close()

	post := func(body string) *http.Response {
		resp, err := http.Post(srv.URL+"/v1/completions", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	if resp := post(`{`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body: status %d", resp.StatusCode)
	}
	if resp := post(`{"prompt":""}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty prompt: status %d", resp.StatusCode)
	}
	if resp := post(`{"prompt":" \n\t "}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("whitespace-only prompt: status %d", resp.StatusCode)
	}
	if resp := post(`{"prompt":"hi","max_tokens":16}`); resp.StatusCode != http.StatusBadRequest {
		t.Errorf("multi-token request: status %d", resp.StatusCode)
	}
	getResp, err := http.Get(srv.URL + "/v1/completions")
	if err != nil {
		t.Fatal(err)
	}
	if getResp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET: status %d", getResp.StatusCode)
	}
	health, err := http.Get(srv.URL + "/healthz")
	if err != nil || health.StatusCode != http.StatusOK {
		t.Errorf("healthz failed: %v %v", err, health)
	}
	models, err := http.Get(srv.URL + "/v1/models")
	if err != nil || models.StatusCode != http.StatusOK {
		t.Errorf("models failed: %v", err)
	}
}

func TestHTTPBodyLimit(t *testing.T) {
	b := testBackend(t)
	h := NewHandler(b, "m")
	// A well-formed request whose prompt alone runs past the cap.
	body := `{"prompt":"` + strings.Repeat("a", maxBodyBytes) + `"}`
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/completions", strings.NewReader(body)))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body: status %d, want 413", rec.Code)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.nextID != 0 {
		t.Fatalf("oversized body submitted %d requests", b.nextID)
	}
}
