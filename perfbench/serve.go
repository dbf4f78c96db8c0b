package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"runtime"
	"sync/atomic"
	"time"

	"extra/internal/batch"
	"extra/internal/cache"
	"extra/internal/obs"
	"extra/internal/server"
)

const (
	// serveMix: one request in every serveMix is a cold POST /batch, the
	// others warm GET /analyze reads.
	serveMix = 5
	// serveValidate is the server's validation count, which keys the hot
	// set's cache entries.
	serveValidate = 300
	// A cold request's validate count lies in [coldBase, coldBase+coldBand),
	// just above the hot keys' count. Each pair walks the band in one
	// seeded order, over and over, so the average count, and with it a
	// cold request's cost, does not depend on how many requests a run
	// completes.
	coldBase = serveValidate + 1
	coldBand = 100
	// serveCacheEntries is the cache's memory capacity. A pair's count
	// comes round again only after coldBand of its own cold requests, so
	// about 17 x coldBand = 1700 other cold writes: by then least-recently
	// used eviction has dropped its entry, and the request misses again.
	// Warm reads keep the 17 hot entries recent. verify checks that every
	// cold request missed.
	serveCacheEntries = 512
	// serveCheckOps is the length of the fixed seeded check sequence.
	serveCheckOps = 32
)

// serveSpec: one HTTP request to an in-process analysis server with a
// cache, over a closed loop of one connection. Four in five are warm
// GET /analyze reads of the prewarmed catalog; the rest are cold POST /batch
// requests for one pair, each with a validate count whose cache key the
// cache does not hold: it misses, runs the engine, and writes the cache.
var serveSpec = spec{
	setup:         setupServe,
	check:         checkServe,
	deterministic: []string{"serve.cache_hits", "serve.cache_misses"},
}

type serveWorkload struct {
	reg    *obs.Registry
	hs     *http.Server
	served chan error
	base   string
	client *http.Client
	pairs  []string
	// steps is each pair's step count from a direct library run: every
	// row the server returns must agree with it.
	steps map[string]int
	// warmRows are the prewarm (cold) responses of the hot set, the whole
	// catalog; every warm response must equal its pair's row apart from
	// duration and trace.
	warmRows map[string]batch.Result
	// minted[i] counts pair i's cold requests, which take their validate
	// counts from coldOrder in turn. No count equals a hot key's.
	minted     []atomic.Int64
	coldOrder  []int
	warm, cold atomic.Int64
	before     regTotals
}

func setupServe(seed int64, tr *obs.Tracer) (workload, error) {
	cat := catalog()
	w := &serveWorkload{
		steps: map[string]int{}, warmRows: map[string]batch.Result{}, minted: make([]atomic.Int64, len(cat)),
		coldOrder: rand.New(rand.NewSource(seed)).Perm(coldBand),
	}
	for _, a := range cat {
		_, b, err := a.RunCtx(context.Background(), nil)
		if err != nil {
			return nil, fmt.Errorf("%s/%s: %w", a.Instruction, a.Operator, err)
		}
		pair := a.Instruction + "/" + a.Operator
		w.pairs = append(w.pairs, pair)
		w.steps[pair] = b.Steps
	}
	w.reg = obs.NewRegistry()
	c, err := cache.New(cache.Config{Entries: serveCacheEntries, Metrics: w.reg})
	if err != nil {
		return nil, err
	}
	srv := server.New(server.Config{
		Cache: c, Metrics: w.reg, Tracer: tr,
		Validate: serveValidate, Jobs: runtime.NumCPU(),
	})
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	w.base = "http://" + lis.Addr().String()
	w.hs = &http.Server{Handler: srv.Handler()}
	w.served = make(chan error, 1)
	go func() { w.served <- w.hs.Serve(lis) }()
	w.client = &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 1},
		Timeout:   time.Minute,
	}

	for _, pair := range w.pairs {
		row, cacheState, err := w.analyze(pair)
		if err == nil && cacheState != "miss" {
			err = fmt.Errorf("prewarm of %s answered X-Cache %q, want miss", pair, cacheState)
		}
		if err != nil {
			w.close()
			return nil, err
		}
		w.warmRows[pair] = row
	}
	w.before = totals(w.reg)
	return w, nil
}

func (w *serveWorkload) op(c *caller) (string, error) {
	if c.draw("mix", serveMix) != 0 {
		pair := w.pairs[c.draw("hot", len(w.pairs))]
		sp := c.spans.start("server.request")
		row, cacheState, err := w.analyze(pair)
		c.spans.end(sp)
		w.warm.Add(1)
		if err != nil {
			return "warm", err
		}
		if cacheState != "hit" {
			return "warm", fmt.Errorf("warm GET /analyze %s answered X-Cache %q, want hit", pair, cacheState)
		}
		if row != w.warmRows[pair] {
			return "warm", fmt.Errorf("warm row for %s differs from its cold row: %+v vs %+v", pair, row, w.warmRows[pair])
		}
		return "warm", nil
	}
	i := c.draw("cold", len(w.pairs))
	validate := coldBase + w.coldOrder[(w.minted[i].Add(1)-1)%coldBand]
	sp := c.spans.start("server.request")
	row, err := w.batch(w.pairs[i], validate)
	c.spans.end(sp)
	w.cold.Add(1)
	if err == nil && (row.Validated <= 0 || row.Validated > validate) {
		err = fmt.Errorf("cold /batch %s validated %d of %d inputs", w.pairs[i], row.Validated, validate)
	}
	return "cold", err
}

// analyze issues GET /analyze for pair and returns the row (duration and
// trace cleared) and the X-Cache header.
func (w *serveWorkload) analyze(pair string) (batch.Result, string, error) {
	resp, err := w.client.Get(w.base + "/analyze?pair=" + url.QueryEscape(pair))
	if err != nil {
		return batch.Result{}, "", err
	}
	var row batch.Result
	err = decodeResponse(resp, &row)
	if err != nil {
		return row, "", fmt.Errorf("GET /analyze %s: %w", pair, err)
	}
	return row, resp.Header.Get("X-Cache"), w.checkRow(pair, &row)
}

// batch issues POST /batch for one pair with the given validate count.
func (w *serveWorkload) batch(pair string, validate int) (batch.Result, error) {
	body, err := json.Marshal(map[string]any{"pairs": []string{pair}, "validate": validate})
	if err != nil {
		return batch.Result{}, err
	}
	resp, err := w.client.Post(w.base+"/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		return batch.Result{}, err
	}
	var report struct{ Results []batch.Result }
	if err := decodeResponse(resp, &report); err != nil {
		return batch.Result{}, fmt.Errorf("POST /batch %s: %w", pair, err)
	}
	if len(report.Results) != 1 {
		return batch.Result{}, fmt.Errorf("POST /batch %s: %d rows", pair, len(report.Results))
	}
	row := report.Results[0]
	return row, w.checkRow(pair, &row)
}

// checkRow clears the fields that legitimately differ between responses
// and checks the row against the direct library run.
func (w *serveWorkload) checkRow(pair string, row *batch.Result) error {
	row.DurationMS, row.Trace = 0, ""
	if row.Outcome != "ok" {
		return fmt.Errorf("%s: outcome %q: %s", pair, row.Outcome, row.Error)
	}
	if row.Pair() != pair || row.Steps != w.steps[pair] {
		return fmt.Errorf("%s: row for %s with %d steps, the library run took %d", pair, row.Pair(), row.Steps, w.steps[pair])
	}
	return nil
}

func decodeResponse(resp *http.Response, v any) error {
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(data))
	}
	return json.Unmarshal(data, v)
}

// verify checks the cold-key minting against the cache's own counters:
// every cold request missed and every warm request hit.
func (w *serveWorkload) verify() error {
	d := totals(w.reg).minus(w.before)
	if hits, misses := d.counter("cache.hit"), d.counter("cache.miss"); hits != float64(w.warm.Load()) || misses != float64(w.cold.Load()) {
		return fmt.Errorf("cache counted %v hits and %v misses for %d warm and %d cold requests", hits, misses, w.warm.Load(), w.cold.Load())
	}
	return nil
}

// layerMetrics reads the server's and cache's own series for the window.
func (w *serveWorkload) layerMetrics() map[string]float64 {
	d := totals(w.reg).minus(w.before)
	mean := func(h histTotal) float64 {
		if h.count == 0 {
			return 0
		}
		return h.sum / h.count / float64(time.Millisecond)
	}
	hits, misses := d.counter("cache.hit"), d.counter("cache.miss")
	ratio := 0.0
	if hits+misses > 0 {
		ratio = hits / (hits + misses)
	}
	return map[string]float64{
		"server.queue_wait_ms": mean(d.hist("server.queue_wait.ns")),
		"server.service_ms":    mean(d.hist("server.latency.ns")),
		"cache.hit_ratio":      ratio,
		"cache.evictions":      d.counter("cache.evicted"),
		"server.shed":          d.counter("server.shed"),
	}
}

func (w *serveWorkload) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := w.hs.Shutdown(ctx)
	w.client.CloseIdleConnections()
	if serr := <-w.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// checkServe runs a fixed seeded request sequence, serially, against a
// fresh server.
func checkServe(seed int64) (checkResult, error) {
	wl, err := setupServe(seed, nil)
	if err != nil {
		return checkResult{}, err
	}
	w := wl.(*serveWorkload)
	before := totals(obs.Default())
	c := &caller{rng: rand.New(rand.NewSource(seed))}
	res := checkResult{ops: serveCheckOps}
	for i := 0; i < serveCheckOps; i++ {
		if _, err := w.op(c); err != nil {
			res.failures = append(res.failures, err.Error())
		}
	}
	if err := w.verify(); err != nil {
		res.failures = append(res.failures, err.Error())
	}
	d := totals(w.reg).minus(w.before)
	res.counts = layerCounts(totals(obs.Default()).minus(before).plus(d), serveCheckOps)
	res.counts["serve.cache_hits"] = d.counter("cache.hit")
	res.counts["serve.cache_misses"] = d.counter("cache.miss")
	return res, w.close()
}
