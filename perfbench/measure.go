package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"extra/internal/obs"
)

// caller is the closed-loop client: it issues its next operation only
// after the previous one returned.
type caller struct {
	rng *rand.Rand
	// spans is nil in untraced measurement; every span method is a no-op
	// then.
	spans *spanLog
	// cycles accumulates simulated cycles (codegen) for sim.cycles_per_s.
	cycles uint64
	// decks are the caller's named decks; see draw.
	decks map[string]*deck
}

// measurement is what one window of closed-loop load produced.
//
// Operation times are process CPU times: the CPU time all of the
// process's threads ran while the operation was in flight, which counts
// the operation's own thread, the search's worker pool, the server's
// handlers and the garbage collector alike. One caller keeps one operation
// in flight, so the process's CPU time during an operation is that
// operation's. On a virtual machine the kernel leaves time the hypervisor
// gave to other guests out of CPU time, while wall-clock time keeps it.
// Steal episodes on a shared 2-vCPU Xeon VM last minutes, so no length of
// run averages them away: over two sets of ten seeds per workload the
// spread (interquartile range over median) of throughput was 0.10-0.40 in
// wall-clock time and 0.04-0.14 in CPU time. Wall-clock figures are kept beside the CPU ones
// and printed for reference.
type measurement struct {
	ops    int
	failed int
	// failures keeps the first few failure messages.
	failures []string
	wall     time.Duration
	// cpu is the process CPU time over the window.
	cpu time.Duration
	// lat holds each class's sorted per-operation CPU times, wallLat the
	// wall-clock times.
	lat, wallLat map[string][]time.Duration
	spans        *spanLog
	cycles       uint64
	// program is the process registry's change over the window.
	program regTotals
	// layer holds the workload's own per-layer readings, if it has any.
	layer map[string]float64
	// rssMB is the window's peak resident memory; see rssSampler.
	rssMB float64
	// stealPct is the share of the machine's CPU time the hypervisor gave
	// to other guests during the window; a high value marks a run measured
	// on a contended host.
	stealPct float64
}

// measure drives w with one closed-loop caller for d and records every
// operation's CPU and wall-clock time. The caller draws from an RNG seeded
// from seed, so the operation stream is a function of the seed.
func measure(w workload, seed int64, d time.Duration, traced bool) (*measurement, error) {
	m := &measurement{lat: map[string][]time.Duration{}, wallLat: map[string][]time.Duration{}}
	c := &caller{rng: rand.New(rand.NewSource(seed*7919 + 1))}
	if traced {
		c.spans = newSpanLog()
		m.spans = c.spans
	}
	rss := startRSSSampler()
	total0, steal0 := cpuTicks()
	cpu0 := processCPU()
	start := time.Now()
	deadline := start.Add(d)
	root := c.spans.start("bench.loop")
	for time.Now().Before(deadline) {
		sp := c.spans.start("bench.op")
		t0, c0 := time.Now(), processCPU()
		class, err := w.op(c)
		cpu, lat := processCPU()-c0, time.Since(t0)
		c.spans.end(sp)
		m.ops++
		if err != nil {
			m.failed++
			if len(m.failures) < maxFailureLines {
				m.failures = append(m.failures, err.Error())
			}
		}
		m.lat[class] = append(m.lat[class], cpu)
		m.wallLat[class] = append(m.wallLat[class], lat)
	}
	c.spans.end(root)
	m.cpu = processCPU() - cpu0
	m.wall = time.Since(start)
	m.rssMB = rss.finish()
	if total, steal := cpuTicks(); total > total0 {
		m.stealPct = 100 * (steal - steal0) / (total - total0)
	}
	m.cycles = c.cycles
	for _, lat := range []map[string][]time.Duration{m.lat, m.wallLat} {
		for _, v := range lat {
			sort.Slice(v, func(i, j int) bool { return v[i] < v[j] })
		}
	}
	if m.ops == 0 {
		return nil, fmt.Errorf("no operation completed in %v", d)
	}
	return m, nil
}

// throughput is operations per second of process CPU time.
func (m *measurement) throughput() float64 { return float64(m.ops) / m.cpu.Seconds() }

// wallThroughput is operations per wall-clock second.
func (m *measurement) wallThroughput() float64 { return float64(m.ops) / m.wall.Seconds() }

// latencies returns the sorted CPU times of one class; "" means all.
func (m *measurement) latencies(class string) []time.Duration { return pick(m.lat, class) }

// wallLatencies returns the sorted wall-clock times of one class.
func (m *measurement) wallLatencies(class string) []time.Duration { return pick(m.wallLat, class) }

func pick(lat map[string][]time.Duration, class string) []time.Duration {
	if class != "" {
		return lat[class]
	}
	var all []time.Duration
	for _, v := range lat {
		all = append(all, v...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	return all
}

// classes lists the named latency classes in order.
func (m *measurement) classes() []string {
	var out []string
	for k := range m.lat {
		if k != "" {
			out = append(out, k)
		}
	}
	sort.Strings(out)
	return out
}

// percentile is the nearest-rank percentile of sorted samples.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// beyond is how many of n samples lie above the nearest-rank percentile p.
func beyond(n int, p float64) int {
	return n - int(math.Ceil(p/100*float64(n)))
}

// regTotals is a flat view of a registry: counters summed over labels by
// metric name, histograms as count and sum.
type regTotals struct {
	counters map[string]float64
	hists    map[string]histTotal
}

type histTotal struct{ count, sum float64 }

func totals(r *obs.Registry) regTotals {
	t := regTotals{counters: map[string]float64{}, hists: map[string]histTotal{}}
	snap := r.Snapshot()
	for _, c := range snap.Counters {
		t.counters[c.Metric] += float64(c.Value)
	}
	for _, h := range snap.Histograms {
		ht := t.hists[h.Metric]
		ht.count += float64(h.Count)
		ht.sum += float64(h.Sum)
		t.hists[h.Metric] = ht
	}
	return t
}

func (t regTotals) minus(o regTotals) regTotals {
	d := regTotals{counters: map[string]float64{}, hists: map[string]histTotal{}}
	for k, v := range t.counters {
		d.counters[k] = v - o.counters[k]
	}
	for k, v := range t.hists {
		d.hists[k] = histTotal{v.count - o.hists[k].count, v.sum - o.hists[k].sum}
	}
	return d
}

func (t regTotals) plus(o regTotals) regTotals {
	s := regTotals{counters: map[string]float64{}, hists: map[string]histTotal{}}
	for _, x := range []regTotals{t, o} {
		for k, v := range x.counters {
			s.counters[k] += v
		}
		for k, v := range x.hists {
			h := s.hists[k]
			s.hists[k] = histTotal{h.count + v.count, h.sum + v.sum}
		}
	}
	return s
}

func (t regTotals) counter(name string) float64 { return t.counters[name] }

func (t regTotals) hist(name string) histTotal { return t.hists[name] }

// layerCounts derives the per-operation layer counts every check pass
// reports from a registry delta over the pass.
func layerCounts(d regTotals, ops int) map[string]float64 {
	per := func(v float64) float64 { return v / math.Max(float64(ops), 1) }
	precond := d.counter("transform.precond")
	probes := precond + d.counter("transform.error") + d.counter("auto.explored") + d.counter("transform.applied")
	ratio := 0.0
	if probes > 0 {
		ratio = precond / probes
	}
	return map[string]float64{
		"transform.applies_per_op":         per(d.counter("transform.applied")),
		"transform.precond_rejects_per_op": per(precond),
		"transform.precond_reject_ratio":   ratio,
		"equiv.compares_per_op":            per(d.counter("equiv.compare")),
		"constraint.checks_per_op":         per(d.counter("constraint.check")),
		"interp.runs":                      d.counter("interp.run"),
		"interp.steps":                     d.hist("interp.steps").sum,
		"auto.states_explored":             d.counter("auto.explored"),
		"codegen.exotic_emits":             d.counter("codegen.exotic"),
		"codegen.fallbacks":                d.counter("codegen.fallback"),
	}
}

// rssEvery is the resident-memory sampling interval.
const rssEvery = 50 * time.Millisecond

// rssPeakPercentile is the order statistic of the per-second maxima that
// peak_rss_mb reports.
const rssPeakPercentile = 90

// rssSampler samples the process's resident memory during a window. Its
// result is the 90th percentile, over the window's whole seconds, of each
// second's largest sample: growth that lasts a tenth of the window shows,
// while the single largest transient does not decide the figure alone. The
// process-lifetime high-water mark records one transient between two
// garbage collections; on a 2-vCPU Xeon VM it varied by a third between
// serve runs and grew with the run's length.
type rssSampler struct {
	stop   chan struct{}
	done   chan struct{}
	maxima []float64
}

func startRSSSampler() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		second := time.Now().Add(time.Second)
		cur := residentBytes()
		for {
			select {
			case <-s.stop:
				if len(s.maxima) == 0 {
					s.maxima = append(s.maxima, cur)
				}
				return
			case now := <-t.C:
				cur = math.Max(cur, residentBytes())
				if now.After(second) {
					s.maxima = append(s.maxima, cur)
					cur, second = 0, second.Add(time.Second)
				}
			}
		}
	}()
	return s
}

// finish stops the sampler and returns its peak in MiB, or the process
// high-water mark where resident memory cannot be sampled.
func (s *rssSampler) finish() float64 {
	close(s.stop)
	<-s.done
	sort.Float64s(s.maxima)
	rank := int(math.Ceil(rssPeakPercentile / 100.0 * float64(len(s.maxima))))
	peak := s.maxima[rank-1]
	if peak <= 0 {
		return peakRSSMB()
	}
	return peak / (1 << 20)
}

// residentBytes reads the resident set size from /proc/self/statm; 0 where
// that is unavailable.
func residentBytes() float64 {
	data, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(data))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0
	}
	return pages * float64(os.Getpagesize())
}

// peakRSSMB is the process's resident high-water mark in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	kb := float64(ru.Maxrss)
	if runtime.GOOS == "darwin" {
		kb /= 1024 // bytes there
	}
	return kb / 1024
}

// cpuTicks reads the machine's total and stolen CPU ticks from the
// aggregate line of /proc/stat; zeros where that is unavailable.
func cpuTicks() (total, steal float64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, v := range f[1:] {
		n, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return 0, 0
		}
		if i < 8 { // guest time is already counted in user time
			total += n
		}
		if i == 7 {
			steal = n
		}
	}
	return total, steal
}

// deck deals indices 0..n-1 in a seeded random order, reshuffling after
// each full pass, so every item recurs at the same rate whatever the seed.
type deck struct {
	order []int
	pos   int
	rng   *rand.Rand
}

func newDeck(n int, rng *rand.Rand) *deck {
	d := &deck{order: make([]int, n), rng: rng}
	for i := range d.order {
		d.order[i] = i
	}
	d.pos = n
	return d
}

// draw deals the caller's next index from its named deck over n items.
func (c *caller) draw(name string, n int) int {
	d := c.decks[name]
	if d == nil {
		if c.decks == nil {
			c.decks = map[string]*deck{}
		}
		d = newDeck(n, c.rng)
		c.decks[name] = d
	}
	return d.next()
}

func (d *deck) next() int {
	if d.pos == len(d.order) {
		d.rng.Shuffle(len(d.order), func(i, j int) { d.order[i], d.order[j] = d.order[j], d.order[i] })
		d.pos = 0
	}
	d.pos++
	return d.order[d.pos-1]
}
