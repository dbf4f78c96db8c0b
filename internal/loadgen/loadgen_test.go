package loadgen

import (
	"context"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
	"time"
)

// TestStatsAgainstSortedReference: the percentile computation is exact
// nearest-rank; check it against an independent sorted-slice reference on
// shuffled adversarial inputs.
func TestStatsAgainstSortedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cases := [][]int64{
		{42},
		{1, 2},
		{5, 5, 5, 5, 5},
		func() []int64 { // heavy tail
			s := make([]int64, 1000)
			for i := range s {
				s[i] = int64(rng.Intn(100)) + 1
			}
			s[0] = 1 << 50
			return s
		}(),
		func() []int64 { // uniform
			s := make([]int64, 777)
			for i := range s {
				s[i] = rng.Int63n(1 << 30)
			}
			return s
		}(),
	}
	for ci, samples := range cases {
		got := Stats(samples)
		sorted := append([]int64(nil), samples...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		ref := func(q float64) int64 {
			i := int(q*float64(len(sorted)) + 0.9999999)
			if i < 1 {
				i = 1
			}
			if i > len(sorted) {
				i = len(sorted)
			}
			return sorted[i-1]
		}
		if got.Count != len(samples) || got.MinNS != sorted[0] || got.MaxNS != sorted[len(sorted)-1] {
			t.Errorf("case %d: count/min/max = %d/%d/%d", ci, got.Count, got.MinNS, got.MaxNS)
		}
		if got.P50NS != ref(0.50) || got.P90NS != ref(0.90) || got.P99NS != ref(0.99) || got.P999NS != ref(0.999) {
			t.Errorf("case %d: quantiles %d/%d/%d/%d want %d/%d/%d/%d", ci,
				got.P50NS, got.P90NS, got.P99NS, got.P999NS,
				ref(0.50), ref(0.90), ref(0.99), ref(0.999))
		}
	}
	if s := Stats(nil); s.Count != 0 || s.P99NS != 0 {
		t.Errorf("empty stats = %+v", s)
	}
}

func TestSLOEvaluate(t *testing.T) {
	rep := &Report{
		Warm: LatencyStats{Count: 100, P99NS: int64(time.Millisecond)},
		Cold: LatencyStats{Count: 10, P50NS: int64(100 * time.Millisecond)},
	}
	if v := rep.Evaluate(SLO{WarmP99LTColdP50: true}); !v.Pass {
		t.Errorf("healthy split failed the gate: %v", v.Violations)
	}
	rep.Warm.P99NS = rep.Cold.P50NS // equal is a violation
	if v := rep.Evaluate(SLO{WarmP99LTColdP50: true}); v.Pass {
		t.Error("warm p99 == cold p50 must violate the gate")
	}
	rep.Server5xx = 3
	v := rep.Evaluate(SLO{Max5xx: 2})
	if v.Pass || len(v.Violations) != 1 {
		t.Errorf("3 > 2 5xx: %+v", v)
	}
	if v := rep.Evaluate(SLO{Max5xx: 3}); !v.Pass {
		t.Errorf("3 <= 3 5xx should pass: %v", v.Violations)
	}
	empty := &Report{}
	if v := empty.Evaluate(SLO{WarmP99LTColdP50: true}); v.Pass {
		t.Error("no samples must not silently pass the warm/cold gate")
	}
}

// TestWriteBench: the emitted lines satisfy cmd/benchjson's input contract
// (Benchmark prefix, integer second field, value/unit pairs).
func TestWriteBench(t *testing.T) {
	rep := &Report{
		ThroughputRPS: 123.4,
		Overall:       LatencyStats{Count: 110, P50NS: 100, P99NS: 900, MaxNS: 1000},
		Warm:          LatencyStats{Count: 100, P50NS: 50, P90NS: 80, P99NS: 90, MaxNS: 95},
		Cold:          LatencyStats{Count: 10, P50NS: 5000, P90NS: 8000, P99NS: 9000, MaxNS: 9500},
	}
	var sb strings.Builder
	if err := rep.WriteBench(&sb, "Serve"); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("%d bench lines, want 3 (coalesced empty → skipped):\n%s", len(lines), sb.String())
	}
	for _, line := range lines {
		f := strings.Fields(line)
		if !strings.HasPrefix(f[0], "Benchmark") {
			t.Errorf("line %q lacks the Benchmark prefix", line)
		}
		if len(f) < 4 || len(f)%2 != 0 {
			t.Errorf("line %q is not name + count + value/unit pairs", line)
		}
	}
	if !strings.Contains(sb.String(), "BenchmarkServeWarm 100 50 p50-ns") {
		t.Errorf("warm line malformed:\n%s", sb.String())
	}
}

// fakeAnalyze is a stand-in /analyze endpoint with deterministic warm/cold
// behavior: the first request per pair is a slow miss, later ones are fast
// hits — the cache contract loadgen classifies against.
type fakeAnalyze struct {
	mu   chan struct{}
	seen map[string]bool
}

func newFakeAnalyze() *fakeAnalyze {
	f := &fakeAnalyze{mu: make(chan struct{}, 1), seen: map[string]bool{}}
	f.mu <- struct{}{}
	return f
}

func (f *fakeAnalyze) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	pair := req.URL.Query().Get("pair")
	<-f.mu
	warm := f.seen[pair]
	f.seen[pair] = true
	f.mu <- struct{}{}
	w.Header().Set("X-Trace-Id", "t-"+pair)
	if warm {
		w.Header().Set("X-Cache", "hit")
	} else {
		w.Header().Set("X-Cache", "miss")
		time.Sleep(25 * time.Millisecond)
	}
	w.WriteHeader(http.StatusOK)
	w.Write([]byte(`{"outcome":"ok"}`))
}

func TestRunClosedLoop(t *testing.T) {
	ts := httptest.NewServer(newFakeAnalyze())
	defer ts.Close()
	rep, err := Run(context.Background(), Config{
		BaseURL: ts.URL, Pairs: []string{"a/x", "b/y", "c/z"},
		Concurrency: 4, Requests: 60, Duration: 30 * time.Second,
		WarmFrac: 0.5, Seed: 7, Prewarm: false,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Mode != "closed" {
		t.Errorf("mode %q", rep.Mode)
	}
	if rep.Requests != 60 {
		t.Errorf("%d requests, want exactly 60 (the -requests bound)", rep.Requests)
	}
	if rep.Errors != 0 || rep.Server5xx != 0 {
		t.Errorf("errors=%d 5xx=%d", rep.Errors, rep.Server5xx)
	}
	// Exactly one miss per pair actually drawn; everything else is warm.
	if rep.Cold.Count < 1 || rep.Cold.Count > 3 {
		t.Errorf("%d cold samples, want 1..3 (one miss per pair drawn)", rep.Cold.Count)
	}
	if rep.Warm.Count != 60-rep.Cold.Count {
		t.Errorf("warm %d + cold %d != 60", rep.Warm.Count, rep.Cold.Count)
	}
	if rep.Traced != 60 {
		t.Errorf("%d traced responses, want 60", rep.Traced)
	}
	// The synthetic 25ms miss must dominate the warm hits.
	if rep.Warm.P99NS >= rep.Cold.P50NS {
		t.Errorf("warm p99 %d >= cold p50 %d against a 25ms-miss fake", rep.Warm.P99NS, rep.Cold.P50NS)
	}
	if v := rep.Evaluate(SLO{WarmP99LTColdP50: true}); !v.Pass {
		t.Errorf("SLO gate failed: %v", v.Violations)
	}
}

func TestRunOpenLoop(t *testing.T) {
	ts := httptest.NewServer(newFakeAnalyze())
	defer ts.Close()
	rep, err := Run(context.Background(), Config{
		BaseURL: ts.URL, Pairs: []string{"a/x"},
		Concurrency: 2, Rate: 200, Duration: 300 * time.Millisecond,
		Prewarm: true, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Mode != "open" {
		t.Errorf("mode %q", rep.Mode)
	}
	if rep.Requests == 0 {
		t.Fatal("open loop issued no requests")
	}
	// Prewarm consumed the only miss, so every measured request is warm —
	// except any cut off mid-flight by the duration deadline, which land as
	// transport errors.
	if rep.Cold.Count != 0 {
		t.Errorf("%d cold samples after prewarm, want 0", rep.Cold.Count)
	}
	if rep.Warm.Count != rep.Requests-rep.Errors {
		t.Errorf("warm %d != requests %d - errors %d", rep.Warm.Count, rep.Requests, rep.Errors)
	}
}

func TestRunConfigErrors(t *testing.T) {
	ctx := context.Background()
	if _, err := Run(ctx, Config{Pairs: []string{"a/x"}, Duration: time.Second}); err == nil {
		t.Error("missing BaseURL accepted")
	}
	if _, err := Run(ctx, Config{BaseURL: "http://x", Duration: time.Second}); err == nil {
		t.Error("missing pairs accepted")
	}
	if _, err := Run(ctx, Config{BaseURL: "http://x", Pairs: []string{"a/x"}}); err == nil {
		t.Error("missing duration and request bound accepted")
	}
}

// TestDeadlineAbortIsNotAnError pins the duration-bound edge: the request
// in flight when the run's own deadline fires is a harness artifact, not a
// service failure — it must not surface as a transport error (which would
// trip a zero-error SLO gate on a perfectly healthy service).
func TestDeadlineAbortIsNotAnError(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(30 * time.Millisecond)
		w.Write([]byte(`{"outcome":"ok"}`))
	}))
	defer ts.Close()
	rep, err := Run(context.Background(), Config{
		BaseURL: ts.URL, Pairs: []string{"a/b"},
		Duration: 100 * time.Millisecond, Concurrency: 1, Prewarm: false,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 {
		t.Errorf("deadline-aborted request counted as %d errors; want 0", rep.Errors)
	}
	if rep.Requests == 0 {
		t.Error("no samples collected before the deadline")
	}
}
