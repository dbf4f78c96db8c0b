// Command perfbench is the repository benchmark. It runs one named workload
// for a fixed time against the EXTRA packages, checks every operation's
// output against an oracle, and prints the end-to-end metrics (or, with
// --trace 1, the per-layer metrics) as one JSON object on the last line of
// standard output:
//
//	bash perfbench/run.sh --workload analyze --seed 1 --seconds 20 --trace 0
//
// Workloads (see README.md for why each exists):
//
//	analyze  one catalog analysis run to common form, then validated on 300 states
//	search   one candidate pair searched to a verdict by the bounded auto-search
//	codegen  one HLL program compiled, simulated and compared with the IR reference
//	serve    one HTTP request to an in-process analysis server with a cache
//
// A run sets the workload up several times in child processes (the median
// is setup_s), sets it up once more in-process, runs the workload's fixed
// seeded check set twice with --seed and once with --check-seed (counts
// must repeat exactly, and no operation may fail), and then measures for
// --seconds with one closed-loop caller. Times are process CPU times (see
// measurement); wall-clock figures are printed beside them. With --trace 1
// that untraced window is followed by a traced window of half its length,
// with benchmark-side spans around every layer call and the program's
// obs.Tracer attached; the difference in throughput is reported as the
// tracing overhead.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"extra/internal/obs"
)

// Child processes time the workload's set-up; the median of their process
// CPU times is setup_s. A set-up takes 20-300 ms and single times vary by a
// third between children, so a run starts at least minSetupRuns children
// and goes on while they have taken less than setupBudget, up to
// maxSetupRuns: cheap set-ups get a median over more children.
const (
	minSetupRuns = 15
	maxSetupRuns = 61
	setupBudget  = 3 * time.Second
)

// minBeyondP99 is how many samples every reported p99 must have above it;
// a run with fewer fails, since its p99 would be one of a handful of
// extreme values.
const minBeyondP99 = 10

// maxFailureLines bounds how many failure messages go to standard error.
const maxFailureLines = 5

// workload is one operation stream under measurement.
type workload interface {
	// op performs one operation for caller c. It returns a latency class
	// ("" when the workload has one class) and a non-nil error when the
	// operation failed or its output disagreed with the oracle.
	op(c *caller) (class string, err error)
	// close releases what set-up acquired.
	close() error
}

// spec describes a workload to the measurement loop.
type spec struct {
	// setup builds the workload from the seed. tr is the program tracer to
	// attach (nil in untraced measurement).
	setup func(seed int64, tr *obs.Tracer) (workload, error)
	// check runs the workload's fixed seeded set once and returns its
	// counts. Keys listed in deterministic must repeat exactly for the
	// same seed.
	check         func(seed int64) (checkResult, error)
	deterministic []string
}

// checkResult is one pass over a workload's fixed seeded set.
type checkResult struct {
	ops      int
	failures []string
	counts   map[string]float64
}

var workloads = map[string]spec{
	"analyze": analyzeSpec,
	"search":  searchSpec,
	"codegen": codegenSpec,
	"serve":   serveSpec,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	workload  string
	seed      int64
	checkSeed int64
	seconds   float64
	trace     int
	setupOnly bool
}

func parseFlags(args []string, stderr io.Writer) (options, error) {
	var o options
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "workload: analyze, search, codegen or serve")
	fs.Int64Var(&o.seed, "seed", 1, "seed the workload's inputs are generated from")
	checkSeed := fs.String("check-seed", "", "second seed the check set must also pass on (default: seed+1)")
	fs.Float64Var(&o.seconds, "seconds", 20, "measurement window in seconds")
	fs.IntVar(&o.trace, "trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	fs.BoolVar(&o.setupOnly, "setup-only", false, "set the workload up and exit (used to time set-up)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if fs.NArg() > 0 {
		return o, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if _, ok := workloads[o.workload]; !ok {
		return o, fmt.Errorf("unknown workload %q (want analyze, search, codegen or serve)", o.workload)
	}
	if o.trace != 0 && o.trace != 1 {
		return o, fmt.Errorf("--trace must be 0 or 1, got %d", o.trace)
	}
	if !(o.seconds > 0) {
		return o, fmt.Errorf("--seconds must be positive")
	}
	o.checkSeed = o.seed + 1
	if *checkSeed != "" {
		v, err := strconv.ParseInt(*checkSeed, 10, 64)
		if err != nil {
			return o, fmt.Errorf("bad --check-seed: %v", err)
		}
		o.checkSeed = v
	}
	if o.checkSeed == o.seed {
		return o, fmt.Errorf("--check-seed must differ from --seed")
	}
	return o, nil
}

func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	sp := workloads[o.workload]
	if o.setupOnly {
		start := processCPU()
		w, err := sp.setup(o.seed, nil)
		elapsed := processCPU() - start
		if err != nil {
			fmt.Fprintln(stderr, "perfbench: setup:", err)
			return 1
		}
		if err := w.close(); err != nil {
			fmt.Fprintln(stderr, "perfbench: close:", err)
			return 1
		}
		fmt.Fprintln(stdout, elapsed.Seconds())
		return 0
	}
	res, err := bench(o, sp, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	printReport(stdout, o, res)
	if !res.correct {
		return 1
	}
	return 0
}

// result is everything one run measured.
type result struct {
	correct   bool
	attempted int
	failed    int
	problems  []string // run-level check failures (not per-operation)
	metrics   []metric
	lines     []string // extra human-readable facts
}

type metric struct {
	name  string
	value float64
	unit  string
}

func bench(o options, sp spec, stderr io.Writer) (*result, error) {
	res := &result{}

	// Determinism self-check: the fixed seeded set twice with the run's
	// seed (deterministic counts must repeat exactly) and once with the
	// second seed (which must run clean).
	first, err := sp.check(o.seed)
	if err != nil {
		return nil, fmt.Errorf("check pass: %w", err)
	}
	again, err := sp.check(o.seed)
	if err != nil {
		return nil, fmt.Errorf("check pass: %w", err)
	}
	other, err := sp.check(o.checkSeed)
	if err != nil {
		return nil, fmt.Errorf("check pass (seed %d): %w", o.checkSeed, err)
	}
	for _, k := range sp.deterministic {
		if first.counts[k] != again.counts[k] {
			res.problems = append(res.problems, fmt.Sprintf("determinism: %s = %v then %v on seed %d", k, first.counts[k], again.counts[k], o.seed))
		}
	}
	for _, c := range []checkResult{first, again, other} {
		res.attempted += c.ops
		res.failed += len(c.failures)
		logFailures(stderr, "check", c.failures, len(c.failures))
	}

	if o.trace == 0 {
		setupS, setups, err := timeSetups(o)
		if err != nil {
			return nil, err
		}
		res.note("setup_s: median of %d child set-ups", setups)
		m, err := window(sp, o.seed, nil, seconds(o.seconds), res)
		if err != nil {
			return nil, err
		}
		res.absorb(m, stderr)
		res.add("setup_s", setupS, "s")
		res.add("throughput_ops_s", m.throughput(), "ops/cpu-s")
		all := m.latencies("")
		res.add("latency_p50_ms", ms(percentile(all, 50)), "cpu-ms")
		res.add("latency_p99_ms", ms(percentile(all, 99)), "cpu-ms")
		res.add("peak_rss_mb", m.rssMB, "MB")
		res.note("samples %d (p99 has %d samples beyond it); host CPU steal during the window %.1f%%", len(all), beyond(len(all), 99), m.stealPct)
		res.checkP99("latency_p99_ms", len(all))
		wall := m.wallLatencies("")
		res.note("wall clock: %.2f ops/s, p50 %.4f ms, p99 %.4f ms; process CPU %.3f s over %.3f s", m.wallThroughput(), ms(percentile(wall, 50)), ms(percentile(wall, 99)), m.cpu.Seconds(), m.wall.Seconds())
		for _, cls := range m.classes() {
			l := m.latencies(cls)
			res.note("%s: samples %d p50 %.4f cpu-ms p99 %.4f cpu-ms", cls, len(l), ms(percentile(l, 50)), ms(percentile(l, 99)))
		}
	} else {
		if err := traced(o, sp, res, stderr); err != nil {
			return nil, err
		}
		res.addCounts(first.counts)
	}
	res.note("check set: %d operations per pass, counts %s", first.ops, formatCounts(first.counts))
	res.correct = res.failed == 0 && len(res.problems) == 0
	for _, p := range res.problems {
		fmt.Fprintln(stderr, "perfbench: check failed:", p)
	}
	return res, nil
}

// traced runs the --trace 1 measurement: the untraced window of a
// --trace 0 run, so the serve split percentiles have as many samples as
// latency_p99_ms has there, then a traced half window over a fresh set-up
// with the program tracer attached.
func traced(o options, sp spec, res *result, stderr io.Writer) error {
	plain, err := window(sp, o.seed, nil, seconds(o.seconds), res)
	if err != nil {
		return err
	}
	res.absorb(plain, stderr)

	sink := &countSink{}
	tr := obs.NewTracer(sink)
	prev := obs.SetTrace(tr)
	defer obs.SetTrace(prev)
	tm, err := window(sp, o.seed, tr, seconds(o.seconds/2), res)
	if err != nil {
		return err
	}
	res.absorb(tm, stderr)

	self, err := foldSpans(tm.spans)
	if err != nil {
		res.problems = append(res.problems, "span folding: "+err.Error())
	}
	var sum time.Duration
	for _, d := range self {
		sum += d
	}
	if diff := math.Abs(float64(sum-tm.cpu)) / float64(tm.cpu); diff > 0.01 {
		res.problems = append(res.problems, fmt.Sprintf("span self times sum to %v, the window's CPU time is %v (%.2f%% apart)", sum, tm.cpu, 100*diff))
	}
	perOp := func(name string) float64 {
		if tm.ops == 0 {
			return 0
		}
		return ms(self[name]) / float64(tm.ops)
	}
	other := time.Duration(0)
	for name, d := range self {
		if strings.HasPrefix(name, "bench.") {
			other += d
		}
	}
	for _, l := range layerSpans {
		res.add(l+"_ms", perOp(l), "cpu-ms")
	}
	res.add("bench.other_ms", ms(other)/math.Max(float64(tm.ops), 1), "cpu-ms")
	res.add("interp.steps_per_s", rate(tm.program.hist("interp.steps").sum, self["interp.validate"]), "1/cpu-s")
	res.add("auto.states_per_s", rate(tm.program.counter("auto.explored"), self["core.auto"]), "1/cpu-s")
	res.add("sim.cycles_per_s", rate(float64(tm.cycles), self["sim.run"]), "1/cpu-s")
	for _, l := range serverLayer {
		res.add(l.name, tm.layer[l.name], l.unit)
	}
	overhead := 0.0
	if pt := plain.throughput(); pt > 0 {
		overhead = 100 * (pt - tm.throughput()) / pt
	}
	res.add("bench.trace_overhead_pct", overhead, "%")
	warm, cold := plain.latencies("warm"), plain.latencies("cold")
	res.add("warm_p50_ms", ms(percentile(warm, 50)), "cpu-ms")
	res.add("cold_p50_ms", ms(percentile(cold, 50)), "cpu-ms")
	res.add("cold_p99_ms", ms(percentile(cold, 99)), "cpu-ms")
	res.add("warm_samples", float64(len(warm)), "count")
	res.add("cold_samples", float64(len(cold)), "count")
	if len(cold) > 0 {
		res.note("cold: samples %d (p99 has %d samples beyond it)", len(cold), beyond(len(cold), 99))
		res.checkP99("cold_p99_ms", len(cold))
	}
	res.note("untraced window: %.2f ops/s over %d ops; traced window: %.2f ops/s over %d ops; %d program trace events",
		plain.throughput(), plain.ops, tm.throughput(), tm.ops, sink.n.Load())
	selfNames := make([]string, 0, len(self))
	for n := range self {
		selfNames = append(selfNames, n)
	}
	sort.Strings(selfNames)
	for _, n := range selfNames {
		res.note("self time %-18s %12.3f cpu-ms (%5.1f%%)", n, ms(self[n]), 100*float64(self[n])/float64(tm.cpu))
	}
	return nil
}

// window sets the workload up (with the program tracer tr attached when
// non-nil; spans are recorded exactly when it is), measures it for d, runs
// its post-window checks, and closes it. Check failures land in
// res.problems.
func window(sp spec, seed int64, tr *obs.Tracer, d time.Duration, res *result) (*measurement, error) {
	w, err := sp.setup(seed, tr)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	before := totals(obs.Default())
	m, err := measure(w, seed, d, tr != nil)
	if err == nil {
		m.program = totals(obs.Default()).minus(before)
		if v, ok := w.(verifier); ok {
			if verr := v.verify(); verr != nil {
				res.problems = append(res.problems, verr.Error())
			}
		}
		if lr, ok := w.(layerReporter); ok {
			m.layer = lr.layerMetrics()
		}
	}
	if cerr := w.close(); err == nil {
		err = cerr
	}
	return m, err
}

// verifier is implemented by workloads with a whole-window check.
type verifier interface{ verify() error }

// layerReporter is implemented by workloads whose layers keep their own
// registry (the server); layerMetrics is read after the window.
type layerReporter interface {
	layerMetrics() map[string]float64
}

// layerSpans are the benchmark-side span names around calls into the
// program's layers; each becomes a per-operation self-time metric.
var layerSpans = []string{
	"proofs.run", "interp.validate", "isps.descs", "core.auto",
	"hll.parse", "ir.ref", "codegen.compile", "sim.run", "server.request",
}

// serverLayer are the per-layer metrics a workload reads from its own
// registry (see layerReporter), with their units.
var serverLayer = []struct{ name, unit string }{
	{"server.queue_wait_ms", "ms"}, {"server.service_ms", "ms"},
	{"cache.hit_ratio", "share"}, {"cache.evictions", "count"}, {"server.shed", "count"},
}

// countUnits names the unit of each check-set count reported with --trace 1.
var countUnits = map[string]string{
	"proof_steps": "count", "search_solved": "count", "gen_cycles": "cycles", "gen_code_bytes": "bytes",
	"transform.applies_per_op": "count", "transform.precond_rejects_per_op": "count",
	"equiv.compares_per_op": "count", "constraint.checks_per_op": "count",
	"core.allocs_per_analysis": "count", "interp.runs": "count", "interp.steps": "count",
	"auto.states_explored": "count", "auto.solved_ratio": "share", "transform.precond_reject_ratio": "share",
	"codegen.exotic_emits": "count", "codegen.fallbacks": "count", "codegen.static_instrs": "count",
}

func (r *result) add(name string, v float64, unit string) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.metrics = append(r.metrics, metric{name, v, unit})
}

// addCounts reports every check-set count, zero where the workload does
// not exercise the layer.
func (r *result) addCounts(c map[string]float64) {
	names := make([]string, 0, len(countUnits))
	for n := range countUnits {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		r.add(n, c[n], countUnits[n])
	}
}

// checkP99 fails the run when a p99 over n samples has fewer than
// minBeyondP99 samples above it.
func (r *result) checkP99(name string, n int) {
	if b := beyond(n, 99); b < minBeyondP99 {
		r.problems = append(r.problems, fmt.Sprintf("%s rests on %d samples, %d beyond it; it needs at least %d beyond it", name, n, b, minBeyondP99))
	}
}

func (r *result) note(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

func (r *result) absorb(m *measurement, stderr io.Writer) {
	r.attempted += m.ops
	r.failed += m.failed
	logFailures(stderr, "measure", m.failures, m.failed)
}

// logFailures prints the first maxFailureLines of n failures.
func logFailures(w io.Writer, phase string, fails []string, n int) {
	for i, f := range fails {
		if i == maxFailureLines {
			break
		}
		fmt.Fprintf(w, "perfbench: %s: failure: %s\n", phase, f)
	}
	if n > maxFailureLines {
		fmt.Fprintf(w, "perfbench: %s: ... %d more failures\n", phase, n-maxFailureLines)
	}
}

func printReport(w io.Writer, o options, res *result) {
	fmt.Fprintf(w, "perfbench workload=%s seed=%d check-seed=%d seconds=%g trace=%d\n", o.workload, o.seed, o.checkSeed, o.seconds, o.trace)
	for _, f := range hostFacts() {
		fmt.Fprintln(w, "host", f)
	}
	for _, l := range res.lines {
		fmt.Fprintln(w, l)
	}
	errRate := 0.0
	if res.attempted > 0 {
		errRate = float64(res.failed) / float64(res.attempted)
	}
	fmt.Fprintf(w, "metric %-34s %g share (%d failed of %d attempted)\n", "error_rate", errRate, res.failed, res.attempted)
	out := map[string]any{}
	for _, m := range res.metrics {
		fmt.Fprintf(w, "metric %-34s %.6g %s\n", m.name, m.value, m.unit)
		out[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	line, _ := json.Marshal(map[string]any{
		"correct":   res.correct,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   out,
	})
	fmt.Fprintln(w, string(line))
}

// timeSetups re-executes this binary in set-up-only mode, as many times as
// the set-up constants above say, and returns the median of the set-up CPU
// times the children report and how many children ran: a fresh
// process pays the corpus parse, interning, binding computation and server
// start that an in-process repeat would find already done.
func timeSetups(o options) (float64, int, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, 0, err
	}
	var times []float64
	start := time.Now()
	for len(times) < minSetupRuns || (len(times) < maxSetupRuns && time.Since(start) < setupBudget) {
		cmd := exec.Command(exe, "--setup-only", "--workload", o.workload, "--seed", strconv.FormatInt(o.seed, 10))
		var stderr strings.Builder
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			return 0, 0, fmt.Errorf("timed setup: %v: %s", err, stderr.String())
		}
		t, err := strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
		if err != nil {
			return 0, 0, fmt.Errorf("timed setup printed %q", out)
		}
		times = append(times, t)
	}
	sort.Float64s(times)
	return times[len(times)/2], len(times), nil
}

// hostFacts stamps the run with where and what it measured.
func hostFacts() []string {
	facts := []string{
		fmt.Sprintf("nproc=%d", runtime.NumCPU()),
		fmt.Sprintf("gomaxprocs=%d", runtime.GOMAXPROCS(0)),
		"go=" + runtime.Version(),
		"cpu=" + strconv.Quote(cpuModel()),
	}
	commit := "unknown (not built from a git checkout)"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	facts = append(facts, "commit="+commit, "source="+sourceDigest())
	return facts
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes the Go sources and module files under the working
// directory, identifying the measured code even where no commit is known.
func sourceDigest() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", path, len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// countSink is the program-tracer sink of the traced run: it counts events
// so tracing costs what emitting costs, without retaining them.
type countSink struct{ n atomic.Int64 }

func (s *countSink) Emit(*obs.Event) { s.n.Add(1) }

func formatCounts(c map[string]float64) string {
	keys := make([]string, 0, len(c))
	for k := range c {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%g", k, c[k])
	}
	return strings.Join(parts, " ")
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func rate(n float64, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return n / d.Seconds()
}
