package server_test

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/server/client"
)

// startService boots a Server on a random loopback port and returns a
// client for it plus the registry, tearing everything down (and
// checking for leaked goroutines) when the test ends.
func startService(t *testing.T, cfg server.Config) (*client.Client, *obs.Registry) {
	t.Helper()
	if cfg.Metrics == nil {
		cfg.Metrics = obs.New()
	}
	before := runtime.NumGoroutine()
	svc := server.New(cfg)
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		svc.Drain()
		ts.Close() // waits for in-flight handlers, closes idle conns
		svc.Close()
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
		}
		if after := runtime.NumGoroutine(); after > before {
			t.Errorf("goroutine leak: %d before, %d after shutdown", before, after)
		}
	})
	return client.New(ts.URL, ts.Client()), cfg.Metrics
}

// TestE2ECacheServesRepeatedRequest is the acceptance pairing from the
// issue: an identical repeated small request is served from the cache —
// the hit counter increments and no second exploration runs (pinned by
// the engine's own reach.states counter staying put).
func TestE2ECacheServesRepeatedRequest(t *testing.T) {
	c, reg := startService(t, server.Config{Workers: 2})
	ctx := context.Background()
	req := &server.Request{Model: "nsdp", Size: 4, Engine: "exhaustive"}

	first, err := c.Verify(ctx, req)
	if err != nil {
		t.Fatalf("first request: %v", err)
	}
	if first.Status != server.StatusOK || !first.Complete || first.Cached {
		t.Fatalf("first request: %+v", first)
	}
	if first.States != 322 { // |RG(NSDP(4))|, pinned by the Table 1 suite
		t.Fatalf("first request explored %d states, want 322", first.States)
	}
	snap := reg.Snapshot()
	if snap.Counters["reach.states"] != 322 {
		t.Fatalf("reach.states = %d after one run, want 322", snap.Counters["reach.states"])
	}
	if snap.Counters["server.cache_hits"] != 0 || snap.Counters["server.cache_misses"] != 1 {
		t.Fatalf("cache counters after miss: %+v", snap.Counters)
	}

	second, err := c.Verify(ctx, req)
	if err != nil {
		t.Fatalf("second request: %v", err)
	}
	if !second.Cached {
		t.Fatalf("second identical request not served from cache: %+v", second)
	}
	if second.States != first.States || second.Deadlock != first.Deadlock {
		t.Fatalf("cached response differs: %+v vs %+v", second, first)
	}
	snap = reg.Snapshot()
	if snap.Counters["reach.states"] != 322 {
		t.Fatalf("reach.states = %d after cached request, want 322 (no second exploration)",
			snap.Counters["reach.states"])
	}
	if snap.Counters["server.cache_hits"] != 1 {
		t.Fatalf("server.cache_hits = %d, want 1", snap.Counters["server.cache_hits"])
	}

	// A different engine is a different content address, not a hit.
	third, err := c.Verify(ctx, &server.Request{Model: "nsdp", Size: 4, Engine: "gpo"})
	if err != nil {
		t.Fatalf("third request: %v", err)
	}
	if third.Cached {
		t.Fatal("different engine served from cache")
	}
}

// TestE2EDeadlineAbortsNSDP10 is the other acceptance half: a
// deadline-limited nsdp(10) request aborts mid-exploration and answers
// with partial statistics, and the aborted result is never cached.
func TestE2EDeadlineAbortsNSDP10(t *testing.T) {
	const full = 1860498 // |RG(NSDP(10))|
	c, reg := startService(t, server.Config{Workers: 2})
	ctx := context.Background()
	req := &server.Request{Model: "nsdp", Size: 10, Engine: "exhaustive", TimeoutMS: 50}

	resp, err := c.Verify(ctx, req)
	if err != nil {
		t.Fatalf("verify: %v", err)
	}
	if resp.Status != server.StatusAborted {
		t.Skipf("nsdp(10) completed within 50ms on this machine: %+v", resp)
	}
	if resp.Complete || resp.Cached {
		t.Fatalf("aborted response: %+v", resp)
	}
	if resp.States <= 0 || resp.States >= full {
		t.Fatalf("aborted with %d states, want partial progress in (0, %d)", resp.States, full)
	}
	if got := reg.Snapshot().Counters["server.aborted"]; got != 1 {
		t.Fatalf("server.aborted = %d, want 1", got)
	}

	again, err := c.Verify(ctx, req)
	if err != nil {
		t.Fatalf("second verify: %v", err)
	}
	if again.Cached {
		t.Fatal("aborted result was served from the cache")
	}
}

// TestE2ESheddingUnderLoad fills the one-worker one-slot service with
// slow jobs and checks the next request is shed with 429 immediately.
func TestE2ESheddingUnderLoad(t *testing.T) {
	c, reg := startService(t, server.Config{Workers: 1, QueueDepth: 1})
	slowCtx, cancelSlow := context.WithCancel(context.Background())
	slow := &server.Request{Model: "nsdp", Size: 10, Engine: "exhaustive", TimeoutMS: 30_000}

	// Occupy the worker and the queue slot. The requests run until we
	// cancel them (client disconnect aborts the engine).
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _ = c.Verify(slowCtx, slow)
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		snap := reg.Snapshot()
		if snap.Gauges["server.inflight"] == 1 && snap.Gauges["server.queue_depth"] == 1 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	snap := reg.Snapshot()
	if snap.Gauges["server.inflight"] != 1 || snap.Gauges["server.queue_depth"] != 1 {
		cancelSlow()
		wg.Wait()
		t.Fatalf("service never saturated: %+v", snap.Gauges)
	}

	_, err := c.Verify(context.Background(),
		&server.Request{Model: "nsdp", Size: 2, Engine: "gpo"})
	var ae *client.APIError
	if !errors.As(err, &ae) || ae.StatusCode != http.StatusTooManyRequests {
		cancelSlow()
		wg.Wait()
		t.Fatalf("request against a full service: err=%v, want 429", err)
	}
	if got := reg.Snapshot().Counters["server.shed"]; got != 1 {
		t.Errorf("server.shed = %d, want 1", got)
	}

	cancelSlow() // disconnect the slow clients; the engine aborts promptly
	wg.Wait()
}

// TestE2EDrainRefusesNewWork covers the shutdown surface: after Drain,
// health reports draining and verification requests answer 503.
func TestE2EDrainRefusesNewWork(t *testing.T) {
	cfg := server.Config{Workers: 1, Metrics: obs.New()}
	svc := server.New(cfg)
	ts := httptest.NewServer(svc.Handler())
	defer func() {
		ts.Close()
		svc.Close()
	}()
	c := client.New(ts.URL, ts.Client())
	ctx := context.Background()

	if status, err := c.Healthz(ctx); err != nil || status != "ok" {
		t.Fatalf("healthz: %q, %v", status, err)
	}
	if _, err := c.Verify(ctx, &server.Request{Model: "nsdp", Size: 2}); err != nil {
		t.Fatalf("verify before drain: %v", err)
	}

	svc.Drain()
	if status, err := c.Healthz(ctx); err != nil || status != "draining" {
		t.Fatalf("healthz after drain: %q, %v", status, err)
	}
	_, err := c.Verify(ctx, &server.Request{Model: "nsdp", Size: 2})
	var ae *client.APIError
	if !errors.As(err, &ae) || ae.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("verify after drain: err=%v, want 503", err)
	}
}

// TestE2EBadRequests pins the 400 surface: resolution and validation
// failures are the client's fault and say why.
func TestE2EBadRequests(t *testing.T) {
	c, _ := startService(t, server.Config{Workers: 1})
	ctx := context.Background()
	cases := []struct {
		name string
		req  *server.Request
	}{
		{"no-net-no-model", &server.Request{}},
		{"both-net-and-model", &server.Request{Net: "net n\nplace p *\n", Model: "nsdp", Size: 2}},
		{"bad-engine", &server.Request{Model: "nsdp", Size: 2, Engine: "quantum"}},
		{"bad-model", &server.Request{Model: "nope", Size: 2}},
		{"bad-pn-text", &server.Request{Net: "place before net\n"}},
		{"negative-workers", &server.Request{Model: "nsdp", Size: 2, Workers: -1}},
		{"bad-check", &server.Request{Model: "nsdp", Size: 2, Check: "liveness"}},
		{"safety-without-bad", &server.Request{Model: "nsdp", Size: 2, Check: server.CheckSafety}},
		{"unknown-bad-place", &server.Request{Model: "nsdp", Size: 2, Check: server.CheckSafety, Bad: []string{"zap"}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := c.Verify(ctx, tc.req)
			var ae *client.APIError
			if !errors.As(err, &ae) || ae.StatusCode != http.StatusBadRequest {
				t.Fatalf("err = %v, want 400", err)
			}
			if ae.Message == "" {
				t.Fatal("400 without a reason")
			}
		})
	}
}

// TestE2EInlineNetAndSafety runs a pnio-text net end to end, both
// checks, exercising witness naming over the wire.
func TestE2EInlineNetAndSafety(t *testing.T) {
	c, _ := startService(t, server.Config{Workers: 1})
	ctx := context.Background()
	const pn = `net toy
place a *
place b
place c
trans ab : a -> b
trans ac : a -> c
`
	dead, err := c.Verify(ctx, &server.Request{Net: pn, Engine: "gpo"})
	if err != nil {
		t.Fatalf("deadlock check: %v", err)
	}
	if !dead.Deadlock || len(dead.Witness) == 0 {
		t.Fatalf("toy net must deadlock with a witness: %+v", dead)
	}
	safe, err := c.Verify(ctx, &server.Request{
		Net: pn, Engine: "exhaustive", Check: server.CheckSafety, Bad: []string{"b", "c"},
	})
	if err != nil {
		t.Fatalf("safety check: %v", err)
	}
	if safe.Deadlock {
		t.Fatalf("b and c are alternatives, never both marked: %+v", safe)
	}
	if safe.Net != "toy" || safe.Check != server.CheckSafety {
		t.Fatalf("response metadata: %+v", safe)
	}
	// A monitoring engine names its witness in the input net's places,
	// and a duplicated bad place is the same set, hence the same run.
	var runID string
	for _, bad := range [][]string{{"b"}, {"b", "b"}} {
		mon, err := c.Verify(ctx, &server.Request{
			Net: pn, Engine: "gpo", Check: server.CheckSafety, Bad: bad,
		})
		if err != nil {
			t.Fatalf("gpo safety check bad=%v: %v", bad, err)
		}
		if !mon.Deadlock || len(mon.Witness) != 1 || mon.Witness[0] != "b" {
			t.Fatalf("bad=%v: want reachable with witness [b], got %+v", bad, mon)
		}
		if runID != "" && mon.RunID != runID {
			t.Fatalf("bad=%v: run ID %s, want %s", bad, mon.RunID, runID)
		}
		runID = mon.RunID
	}
}

// TestE2EMaxStatesClamp checks the server-side admission cap: a request
// asking for an unlimited search on a capped server is clamped to the
// server's bound and overruns it, answering 422 with the engine's
// limit error rather than burning through 5778 states.
func TestE2EMaxStatesClamp(t *testing.T) {
	c, reg := startService(t, server.Config{Workers: 1, MaxStates: 100})
	_, err := c.Verify(context.Background(),
		&server.Request{Model: "nsdp", Size: 6, Engine: "exhaustive"})
	var ae *client.APIError
	if !errors.As(err, &ae) || ae.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("verify on a capped server: err=%v, want 422", err)
	}
	if !strings.Contains(ae.Message, "state limit") {
		t.Fatalf("422 message %q does not mention the state limit", ae.Message)
	}
	if got := reg.Snapshot().Counters["reach.states"]; got > 101 {
		t.Fatalf("explored %d states despite the 100-state cap", got)
	}
}
