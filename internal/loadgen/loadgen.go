// Package loadgen drives the analysis service with synthetic request load
// and reports the latency distribution the service actually delivered —
// the measurement half of a latency SLO. Two driving modes:
//
//   - closed loop (Rate == 0): Concurrency workers each keep exactly one
//     request in flight, so offered load adapts to service speed — the
//     classic saturation probe;
//   - open loop (Rate > 0): requests are generated on a fixed schedule
//     regardless of completions, so queueing delay shows up in the measured
//     latency instead of silently throttling the generator (the
//     coordinated-omission-resistant mode).
//
// Every response is bucketed by its X-Cache header — warm hits, cold
// misses, and coalesced waits have latency distributions that differ by
// orders of magnitude, and folding them into one histogram would make any
// percentile meaningless. The report carries per-bucket percentile stats,
// an error/shed breakdown, and an optional SLO verdict that CI can gate on.
package loadgen

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"
)

// Config parameterizes one load-generation run.
type Config struct {
	// BaseURL is the target service root, e.g. "http://127.0.0.1:8372".
	BaseURL string
	// Client issues the requests; nil means a dedicated client with a
	// 2-minute timeout (an analysis can legitimately take that long cold).
	Client *http.Client
	// Pairs are the /analyze targets ("INSTRUCTION/OPERATOR"). Requests
	// rotate over them; must be non-empty.
	Pairs []string
	// HotPairs, when non-empty, is the pre-warmed subset that WarmFrac
	// steers traffic toward; empty means Pairs[0:1].
	HotPairs []string
	// WarmFrac is the probability a request targets a hot pair instead of
	// rotating through the full list (0 = pure rotation, 1 = hot only).
	WarmFrac float64
	// Concurrency is the worker count (closed loop) or the drain pool size
	// (open loop). 0 means 8.
	Concurrency int
	// Rate, when positive, switches to open-loop generation at this many
	// requests per second overall.
	Rate float64
	// Duration bounds the measured phase. 0 means Requests bounds it.
	Duration time.Duration
	// Requests bounds the total measured request count. 0 means Duration
	// bounds it; both zero is a config error.
	Requests int
	// Prewarm issues one unmeasured request per hot pair before the
	// measured phase, so "warm" means warm from the first sample.
	Prewarm bool
	// Seed makes target selection deterministic; 0 means 1.
	Seed int64
}

func (c *Config) concurrency() int {
	if c.Concurrency > 0 {
		return c.Concurrency
	}
	return 8
}

func (c *Config) hot() []string {
	if len(c.HotPairs) > 0 {
		return c.HotPairs
	}
	return c.Pairs[:1]
}

func (c *Config) client() *http.Client {
	if c.Client != nil {
		return c.Client
	}
	return &http.Client{Timeout: 2 * time.Minute}
}

// LatencyStats summarizes one latency sample set in nanoseconds. The
// percentiles are exact nearest-rank over the sorted samples — loadgen
// holds every sample, so there is no estimation error to reason about.
type LatencyStats struct {
	Count  int   `json:"count"`
	MinNS  int64 `json:"min_ns,omitempty"`
	MaxNS  int64 `json:"max_ns,omitempty"`
	MeanNS int64 `json:"mean_ns,omitempty"`
	P50NS  int64 `json:"p50_ns,omitempty"`
	P90NS  int64 `json:"p90_ns,omitempty"`
	P99NS  int64 `json:"p99_ns,omitempty"`
	P999NS int64 `json:"p999_ns,omitempty"`
}

// Stats computes LatencyStats over samples (not modified; may be empty).
func Stats(samples []int64) LatencyStats {
	if len(samples) == 0 {
		return LatencyStats{}
	}
	s := append([]int64(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	var sum int64
	for _, v := range s {
		sum += v
	}
	rank := func(q float64) int64 {
		// Nearest rank: the smallest sample with at least ceil(q*n)
		// samples at or below it.
		i := int(q*float64(len(s)) + 0.9999999) // ceil for q in (0,1]
		if i < 1 {
			i = 1
		}
		if i > len(s) {
			i = len(s)
		}
		return s[i-1]
	}
	return LatencyStats{
		Count: len(s), MinNS: s[0], MaxNS: s[len(s)-1],
		MeanNS: sum / int64(len(s)),
		P50NS:  rank(0.50), P90NS: rank(0.90), P99NS: rank(0.99), P999NS: rank(0.999),
	}
}

// Report is one run's outcome.
type Report struct {
	Mode          string  `json:"mode"` // "closed" or "open"
	Requests      int     `json:"requests"`
	ElapsedNS     int64   `json:"elapsed_ns"`
	ThroughputRPS float64 `json:"throughput_rps"`
	// Errors counts transport-level failures (no HTTP response at all).
	Errors int `json:"errors"`
	// Status counts responses per status code ("200", "429", ...).
	Status map[string]int `json:"status"`
	// Shed counts 429 responses; Server5xx counts 5xx responses.
	Shed      int `json:"shed"`
	Server5xx int `json:"server_5xx"`
	// Cache counts responses per X-Cache value; responses without the
	// header (health endpoints, errors) land under "none".
	Cache map[string]int `json:"cache"`
	// Traced counts responses that carried an X-Trace-Id header.
	Traced int `json:"traced"`
	// Overall covers every successful response; Warm covers X-Cache
	// hit/hit-disk, Cold covers miss, Coalesced covers coalesced — kept
	// apart because a coalesced wait is engine-priced, not cache-priced.
	Overall   LatencyStats `json:"overall"`
	Warm      LatencyStats `json:"warm"`
	Cold      LatencyStats `json:"cold"`
	Coalesced LatencyStats `json:"coalesced"`
	// SLO is the gate verdict when Evaluate was called.
	SLO *SLOResult `json:"slo,omitempty"`
}

// SLO is a latency/error objective the report can be gated on.
type SLO struct {
	// Max5xx is the tolerated 5xx response count (0 = none).
	Max5xx int
	// MaxErrors is the tolerated transport-error count (0 = none).
	MaxErrors int
	// WarmP99LTColdP50 requires warm-hit p99 below cold-miss p50 — the
	// "the cache is actually doing its job" invariant. Skipped (with a
	// violation) when either bucket has no samples.
	WarmP99LTColdP50 bool
	// MaxWarmP99 bounds the warm p99 absolutely when positive.
	MaxWarmP99 time.Duration
}

// SLOResult is the gate verdict: Pass and the specific violations.
type SLOResult struct {
	Pass       bool     `json:"pass"`
	Violations []string `json:"violations,omitempty"`
}

// Evaluate applies the SLO to the report, records the verdict on it, and
// returns the result.
func (r *Report) Evaluate(slo SLO) SLOResult {
	var v []string
	if r.Server5xx > slo.Max5xx {
		v = append(v, fmt.Sprintf("%d 5xx responses (tolerated %d)", r.Server5xx, slo.Max5xx))
	}
	if r.Errors > slo.MaxErrors {
		v = append(v, fmt.Sprintf("%d transport errors (tolerated %d)", r.Errors, slo.MaxErrors))
	}
	if slo.WarmP99LTColdP50 {
		switch {
		case r.Warm.Count == 0:
			v = append(v, "no warm samples to gate on")
		case r.Cold.Count == 0:
			v = append(v, "no cold samples to gate on")
		case r.Warm.P99NS >= r.Cold.P50NS:
			v = append(v, fmt.Sprintf("warm p99 %v >= cold p50 %v",
				time.Duration(r.Warm.P99NS), time.Duration(r.Cold.P50NS)))
		}
	}
	if slo.MaxWarmP99 > 0 && time.Duration(r.Warm.P99NS) > slo.MaxWarmP99 {
		v = append(v, fmt.Sprintf("warm p99 %v > %v", time.Duration(r.Warm.P99NS), slo.MaxWarmP99))
	}
	res := SLOResult{Pass: len(v) == 0, Violations: v}
	r.SLO = &res
	return res
}

// WriteBench writes the report as `go test -bench`-style result lines, so
// the numbers flow through cmd/benchjson into a committed BENCH file:
//
//	BenchmarkServeWarm 100 12345 p50-ns 23456 p99-ns
//
// The first numeric column (the "iteration count") is the bucket's sample
// count, which is what it genuinely is.
func (r *Report) WriteBench(w io.Writer, prefix string) error {
	row := func(name string, s LatencyStats) error {
		if s.Count == 0 {
			return nil
		}
		_, err := fmt.Fprintf(w, "Benchmark%s%s %d %d p50-ns %d p90-ns %d p99-ns %d max-ns\n",
			prefix, name, s.Count, s.P50NS, s.P90NS, s.P99NS, s.MaxNS)
		return err
	}
	if err := row("Warm", r.Warm); err != nil {
		return err
	}
	if err := row("Cold", r.Cold); err != nil {
		return err
	}
	if err := row("Coalesced", r.Coalesced); err != nil {
		return err
	}
	if r.Overall.Count > 0 {
		if _, err := fmt.Fprintf(w, "Benchmark%sOverall %d %d p50-ns %d p99-ns %.1f rps\n",
			prefix, r.Overall.Count, r.Overall.P50NS, r.Overall.P99NS, r.ThroughputRPS); err != nil {
			return err
		}
	}
	return nil
}

// sample is one measured request.
type sample struct {
	ns     int64
	status int
	cache  string // X-Cache value, "" when absent
	traced bool
	err    bool
}

// collector accumulates samples across workers.
type collector struct {
	mu      sync.Mutex
	samples []sample
}

func (c *collector) add(s sample) {
	c.mu.Lock()
	c.samples = append(c.samples, s)
	c.mu.Unlock()
}

// Run executes the configured load against the target and returns the
// report. The context cancels the run early; whatever was measured up to
// that point is still reported.
func Run(ctx context.Context, cfg Config) (*Report, error) {
	if cfg.BaseURL == "" {
		return nil, errors.New("loadgen: BaseURL is required")
	}
	if len(cfg.Pairs) == 0 {
		return nil, errors.New("loadgen: at least one pair is required")
	}
	if cfg.Duration <= 0 && cfg.Requests <= 0 {
		return nil, errors.New("loadgen: need a Duration or a Requests bound")
	}
	client := cfg.client()
	if cfg.Prewarm {
		for _, p := range cfg.hot() {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			doRequest(ctx, client, cfg.BaseURL, p) // unmeasured
		}
	}
	runCtx := ctx
	if cfg.Duration > 0 {
		var cancel context.CancelFunc
		runCtx, cancel = context.WithTimeout(ctx, cfg.Duration)
		defer cancel()
	}
	var (
		col    collector
		wg     sync.WaitGroup
		remain = int64(cfg.Requests) // <=0 means unbounded
	)
	// claim hands out request budget; with Requests<=0 it always grants.
	var claimMu sync.Mutex
	claim := func() bool {
		if cfg.Requests <= 0 {
			return true
		}
		claimMu.Lock()
		defer claimMu.Unlock()
		if remain <= 0 {
			return false
		}
		remain--
		return true
	}
	mode := "closed"
	start := time.Now()
	if cfg.Rate > 0 {
		mode = "open"
		// Open loop: a generator emits start tokens on the fixed schedule;
		// workers drain them. The token carries its intended start time, so
		// queueing behind busy workers is charged to the measured latency
		// (no coordinated omission).
		tokens := make(chan time.Time, 4096)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer close(tokens)
			interval := time.Duration(float64(time.Second) / cfg.Rate)
			if interval <= 0 {
				interval = time.Microsecond
			}
			tick := time.NewTicker(interval)
			defer tick.Stop()
			for {
				select {
				case <-runCtx.Done():
					return
				case t := <-tick.C:
					if !claim() {
						return
					}
					select {
					case tokens <- t:
					default:
						// The drain pool is hopelessly behind; shedding the
						// token here would hide overload, so block for it.
						select {
						case tokens <- t:
						case <-runCtx.Done():
							return
						}
					}
				}
			}
		}()
		for w := 0; w < cfg.concurrency(); w++ {
			wg.Add(1)
			rng := workerRNG(cfg.Seed, w)
			go func() {
				defer wg.Done()
				for intended := range tokens {
					s := doRequest(runCtx, client, cfg.BaseURL, pick(rng, &cfg))
					if s.err && runCtx.Err() != nil {
						// Aborted by the run's own deadline, not by the
						// service: a harness artifact, not a sample.
						return
					}
					// Charge the schedule slip: the request's latency runs
					// from its intended start, not from when a worker freed up.
					if slip := time.Since(intended).Nanoseconds(); slip > s.ns {
						s.ns = slip
					}
					col.add(s)
				}
			}()
		}
	} else {
		for w := 0; w < cfg.concurrency(); w++ {
			wg.Add(1)
			rng := workerRNG(cfg.Seed, w)
			go func() {
				defer wg.Done()
				for runCtx.Err() == nil && claim() {
					s := doRequest(runCtx, client, cfg.BaseURL, pick(rng, &cfg))
					if s.err && runCtx.Err() != nil {
						// The run deadline cut this request off mid-flight;
						// it measures the harness, not the service.
						return
					}
					col.add(s)
				}
			}()
		}
	}
	wg.Wait()
	elapsed := time.Since(start)
	return build(col.samples, mode, elapsed), nil
}

// workerRNG derives a deterministic per-worker RNG from the seed.
func workerRNG(seed int64, worker int) *rand.Rand {
	if seed == 0 {
		seed = 1
	}
	return rand.New(rand.NewSource(seed + int64(worker)*1_000_003))
}

// pick selects the next request target: WarmFrac steers toward the hot
// set, the rest rotates uniformly over the full pair list.
func pick(rng *rand.Rand, cfg *Config) string {
	if cfg.WarmFrac > 0 && rng.Float64() < cfg.WarmFrac {
		hot := cfg.hot()
		return hot[rng.Intn(len(hot))]
	}
	return cfg.Pairs[rng.Intn(len(cfg.Pairs))]
}

// doRequest issues one /analyze request and measures it.
func doRequest(ctx context.Context, client *http.Client, base, pair string) sample {
	start := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/analyze?pair="+pair, nil)
	if err != nil {
		return sample{ns: time.Since(start).Nanoseconds(), err: true}
	}
	resp, err := client.Do(req)
	if err != nil {
		return sample{ns: time.Since(start).Nanoseconds(), err: true}
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return sample{
		ns:     time.Since(start).Nanoseconds(),
		status: resp.StatusCode,
		cache:  resp.Header.Get("X-Cache"),
		traced: resp.Header.Get("X-Trace-Id") != "",
	}
}

// build folds the samples into the report.
func build(samples []sample, mode string, elapsed time.Duration) *Report {
	r := &Report{
		Mode: mode, Requests: len(samples), ElapsedNS: elapsed.Nanoseconds(),
		Status: map[string]int{}, Cache: map[string]int{},
	}
	if elapsed > 0 {
		r.ThroughputRPS = float64(len(samples)) / elapsed.Seconds()
	}
	var overall, warm, cold, coalesced []int64
	for _, s := range samples {
		if s.err {
			r.Errors++
			continue
		}
		r.Status[strconv.Itoa(s.status)]++
		if s.traced {
			r.Traced++
		}
		switch {
		case s.status == http.StatusTooManyRequests:
			r.Shed++
			continue
		case s.status >= 500:
			r.Server5xx++
			continue
		case s.status >= 400:
			continue
		}
		overall = append(overall, s.ns)
		cacheKey := s.cache
		if cacheKey == "" {
			cacheKey = "none"
		}
		r.Cache[cacheKey]++
		switch s.cache {
		case "hit", "hit-disk":
			warm = append(warm, s.ns)
		case "miss":
			cold = append(cold, s.ns)
		case "coalesced":
			coalesced = append(coalesced, s.ns)
		}
	}
	r.Overall = Stats(overall)
	r.Warm = Stats(warm)
	r.Cold = Stats(cold)
	r.Coalesced = Stats(coalesced)
	return r
}
