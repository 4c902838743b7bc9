package bench

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/answer"
	"repro/internal/kg"
	"repro/internal/serve"
)

// TestPromptSwapInvalidatesCache is the hot-reload-under-traffic
// regression: activating a different prompt version between two runs of
// the same traffic must never serve an answer cached under the old
// version. The cache scope embeds the registry fingerprint and each entry
// records the fingerprint it rendered with, so the proof is in the
// hit/miss deltas — after the swap every request is a stale miss whose
// fill replaces its entry, and restoring the original version misses
// again (the v2 entries do not revalidate under v1) and answers exactly
// what the cold run did.
func TestPromptSwapInvalidatesCache(t *testing.T) {
	cfg := QuickEnvConfig()
	cfg.Data.SimpleN = 6
	cfg.Data.QALDN = 2
	cfg.Data.NatureN = 2
	cfg.Cache = serve.CacheConfig{Size: 256, TTL: time.Hour}
	env, err := NewEnv(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	ctx := context.Background()
	n := int64(len(env.Suite.Simple.Questions))

	// Cold traffic fills the cache under the v1 fingerprint.
	cold, err := env.Run(ctx, MethodOurs, ModelGPT35, env.Suite.Simple, kg.SourceWikidata)
	if err != nil {
		t.Fatal(err)
	}
	hits, misses := env.Cache.Stats().Hits, env.Cache.Stats().Misses
	if misses < n {
		t.Fatalf("cold run missed %d times, want >= %d", misses, n)
	}

	// Same traffic again: all served from cache.
	if _, err := env.Run(ctx, MethodOurs, ModelGPT35, env.Suite.Simple, kg.SourceWikidata); err != nil {
		t.Fatal(err)
	}
	if got := env.Cache.Stats().Hits - hits; got != n {
		t.Fatalf("warm run hit %d times, want %d", got, n)
	}

	// Hot swap: activate answer-graph v2 mid-flight.
	if err := env.Prompts.SetActive("answer-graph", 2); err != nil {
		t.Fatal(err)
	}
	hits, misses = env.Cache.Stats().Hits, env.Cache.Stats().Misses
	if _, err := env.Run(ctx, MethodOurs, ModelGPT35, env.Suite.Simple, kg.SourceWikidata); err != nil {
		t.Fatal(err)
	}
	s := env.Cache.Stats()
	if s.Hits != hits {
		t.Fatalf("prompt swap served %d stale cached answers", s.Hits-hits)
	}
	if got := s.Misses - misses; got != n {
		t.Fatalf("post-swap run missed %d times, want %d", got, n)
	}
	if got := s.StaleMisses; got != n {
		t.Fatalf("post-swap run had %d stale misses, want %d", got, n)
	}

	// Restoring v1 restores the original fingerprint, but each key holds
	// one entry and the swap replaced it with a v2 answer: revalidation
	// refuses it, and the run answers what the cold run answered.
	if err := env.Prompts.SetActive("answer-graph", 1); err != nil {
		t.Fatal(err)
	}
	hits = env.Cache.Stats().Hits
	restored, err := env.Run(ctx, MethodOurs, ModelGPT35, env.Suite.Simple, kg.SourceWikidata)
	if err != nil {
		t.Fatal(err)
	}
	if s := env.Cache.Stats(); s.Hits != hits || s.StaleMisses != 2*n {
		t.Fatalf("restored version: %d hits, %d stale misses in all; want 0, %d", s.Hits-hits, s.StaleMisses, 2*n)
	}
	if restored.Score != cold.Score {
		t.Fatalf("restored version changed the score: %v -> %v", cold.Score, restored.Score)
	}
}

// TestPromptSwapUnderConcurrentTraffic hammers one cached answerer from
// many goroutines while another goroutine flips the active answer-graph
// version, then checks the invariant that survives the race: after the
// dust settles on a final version, a full pass over the questions misses
// at most once per question — nothing keyed under the loser of a flip is
// ever served to the winner. Run under -race this also proves the
// registry swap itself is safe under load.
func TestPromptSwapUnderConcurrentTraffic(t *testing.T) {
	cfg := QuickEnvConfig()
	cfg.Data.SimpleN = 6
	cfg.Data.QALDN = 2
	cfg.Data.NatureN = 2
	cfg.Cache = serve.CacheConfig{Size: 256, TTL: time.Hour}
	env, err := NewEnv(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer env.Close()
	ans, err := env.Answerer(MethodOurs, ModelGPT35, kg.SourceWikidata)
	if err != nil {
		t.Fatal(err)
	}
	questions := env.Suite.Simple.Questions
	ctx := context.Background()

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 3*len(questions); i++ {
				q := questions[(g+i)%len(questions)]
				if _, err := ans.Answer(ctx, answer.Query{Text: q.Text}); err != nil {
					errs <- err
					return
				}
			}
		}(g)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for v := 0; v < 6; v++ {
			if err := env.Prompts.SetActive("answer-graph", 1+v%2); err != nil {
				errs <- err
				return
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Settle on v2 and measure one clean pass.
	if err := env.Prompts.SetActive("answer-graph", 2); err != nil {
		t.Fatal(err)
	}
	before := env.Cache.Stats()
	for _, q := range questions {
		if _, err := ans.Answer(ctx, answer.Query{Text: q.Text}); err != nil {
			t.Fatal(err)
		}
	}
	after := env.Cache.Stats()
	if gotMiss := after.Misses - before.Misses; gotMiss > int64(len(questions)) {
		t.Fatalf("settled pass missed %d times over %d questions", gotMiss, len(questions))
	}
	if total := (after.Misses - before.Misses) + (after.Hits - before.Hits); total != int64(len(questions)) {
		t.Fatalf("settled pass accounted %d lookups over %d questions", total, len(questions))
	}
}
