package main

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/failure"
)

// TestAnswerTraceIncludesStageSpans: the staged engine must surface one
// span per pipeline stage in the wire trace, with the LLM-bearing stages
// accounting their calls.
func TestAnswerTraceIncludesStageSpans(t *testing.T) {
	h := testHandler(t)
	rec := postJSON(t, h, "/v1/answer", map[string]any{
		"question":      "Where was X born?",
		"method":        "ours",
		"include_trace": true,
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	resp := decode[answerResponse](t, rec)
	if resp.Trace == nil {
		t.Fatal("no trace returned")
	}
	stages := resp.Trace.Stages
	if len(stages) == 0 {
		t.Fatal("trace carries no stage spans")
	}
	if stages[0].Stage != core.StagePseudo {
		t.Errorf("first stage = %q, want %q", stages[0].Stage, core.StagePseudo)
	}
	var llmCalls int
	for _, sp := range stages {
		if sp.Err != failure.None {
			t.Errorf("stage %s failed: %s", sp.Stage, sp.Err)
		}
		llmCalls += sp.LLMCalls
	}
	if llmCalls != resp.LLMCalls {
		t.Errorf("stage spans account %d calls, response says %d", llmCalls, resp.LLMCalls)
	}
}

// TestBaselineTraceIncludesStageSpans: baselines run as compositions too.
func TestBaselineTraceIncludesStageSpans(t *testing.T) {
	h := testHandler(t)
	rec := postJSON(t, h, "/v1/answer", map[string]any{
		"question":      "Where was X born?",
		"method":        "sc",
		"include_trace": true,
	})
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	resp := decode[answerResponse](t, rec)
	if resp.Trace == nil || len(resp.Trace.Stages) != 2 {
		t.Fatalf("sc trace = %+v, want sample+aggregate spans", resp.Trace)
	}
	if resp.Trace.Stages[0].Stage != "sample" || resp.Trace.Stages[1].Stage != "aggregate" {
		t.Errorf("sc stages = %q, %q", resp.Trace.Stages[0].Stage, resp.Trace.Stages[1].Stage)
	}
	if resp.Trace.Stages[0].LLMCalls < 2 || resp.Trace.Stages[1].LLMCalls != 0 {
		t.Errorf("sc stage calls = %d/%d, want sampling to carry all calls",
			resp.Trace.Stages[0].LLMCalls, resp.Trace.Stages[1].LLMCalls)
	}
}

// TestMetricsExposeStageBreakdown: after traffic, /v1/metrics reports
// per-stage aggregates under the method.
func TestMetricsExposeStageBreakdown(t *testing.T) {
	h := testHandler(t)
	if rec := postJSON(t, h, "/v1/answer", map[string]any{
		"question": "Where was StageMetricsProbe born?",
		"method":   "ours",
	}); rec.Code != http.StatusOK {
		t.Fatalf("answer failed: %s", rec.Body.String())
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("metrics status %d", rec.Code)
	}
	m := decode[metricsResponse](t, rec)
	var found bool
	for _, method := range m.Methods {
		if method.Method != "ours" {
			continue
		}
		found = true
		if len(method.Stages) == 0 {
			t.Fatal("ours has no stage breakdown")
		}
		names := map[string]bool{}
		for _, st := range method.Stages {
			names[st.Stage] = true
			if st.Count < 1 {
				t.Errorf("stage %s count = %d", st.Stage, st.Count)
			}
		}
		for _, want := range []string{core.StagePseudo, core.StageRetrieve, core.StageVerify, core.StageAnswer} {
			if !names[want] {
				t.Errorf("metrics missing stage %q (have %v)", want, names)
			}
		}
	}
	if !found {
		t.Fatal("no metrics for method ours")
	}
}

// TestOversizedBodyGets413: the body cap must answer 413 with the
// too-large class, not a generic 400, and before buffering the payload.
func TestOversizedBodyGets413(t *testing.T) {
	cfg := testConfig(time.Second)
	cfg.MaxBody = 512
	h := testServer(t, serverEnv(t), cfg).Handler()
	big := strings.Repeat("x", 2048)
	for _, path := range []string{"/v1/answer", "/v1/batch", "/v1/ingest", "/v1/snapshot/compact"} {
		rec := postJSON(t, h, path, map[string]any{"question": big, "kg": big})
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: status %d, want 413 (%s)", path, rec.Code, rec.Body.String())
			continue
		}
		if resp := decode[errorResponse](t, rec); resp.Class != failure.TooLarge {
			t.Errorf("%s: class %q, want too-large", path, resp.Class)
		}
	}
}

var (
	schedEnvOnce sync.Once
	schedEnvVal  *bench.Env
	schedEnvErr  error
)

// schedulerEnv builds a small environment with the shared LLM scheduler
// enabled, for end-to-end flag wiring tests.
func schedulerEnv(t *testing.T) *bench.Env {
	t.Helper()
	schedEnvOnce.Do(func() {
		cfg := bench.QuickEnvConfig()
		cfg.Data.SimpleN = 4
		cfg.Data.QALDN = 2
		cfg.Data.NatureN = 2
		cfg.LLMConcurrency = 2
		schedEnvVal, schedEnvErr = bench.NewEnv(cfg)
	})
	if schedEnvErr != nil {
		t.Fatal(schedEnvErr)
	}
	return schedEnvVal
}

// TestSchedulerStatsOnMetrics: with -llm-concurrency set, serving traffic
// flows through the scheduler and /v1/metrics reports admissions.
func TestSchedulerStatsOnMetrics(t *testing.T) {
	h := testServer(t, schedulerEnv(t), testConfig(30*time.Second)).Handler()
	if rec := postJSON(t, h, "/v1/answer", map[string]any{
		"question": "Where was SchedProbe born?",
		"method":   "cot",
	}); rec.Code != http.StatusOK {
		t.Fatalf("answer failed: %s", rec.Body.String())
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/metrics", nil))
	m := decode[metricsResponse](t, rec)
	if !m.SchedulerEnabled {
		t.Fatal("scheduler_enabled = false on a scheduled environment")
	}
	if m.Scheduler.Concurrency != 2 {
		t.Errorf("scheduler concurrency = %d, want 2", m.Scheduler.Concurrency)
	}
	if m.Scheduler.Admitted < 1 {
		t.Errorf("admitted = %d, want >= 1", m.Scheduler.Admitted)
	}
}

// TestTokenBudgetRefusal: a request whose token budget cannot cover its
// first completion is refused with HTTP 429, class budget.
func TestTokenBudgetRefusal(t *testing.T) {
	h := testServer(t, schedulerEnv(t), testConfig(30*time.Second)).Handler()
	rec := postJSON(t, h, "/v1/answer", map[string]any{
		"question":     "Where was BudgetProbe born?",
		"method":       "ours",
		"token_budget": 1,
	})
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429 (%s)", rec.Code, rec.Body.String())
	}
	if resp := decode[errorResponse](t, rec); resp.Class != failure.Budget {
		t.Errorf("class %q, want budget", resp.Class)
	}
}
