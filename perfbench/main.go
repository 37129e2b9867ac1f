// Command perfbench is the repository's whole-job benchmark. It runs one
// workload for a fixed time, checks every output, and prints the
// workload's metrics by name with their units, ending with one JSON line:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Workloads:
//
//	scale  library path: hub-ring graph, n = 100,000 → core.TwoSpanner →
//	       span verification → JSON encoding
//	gnp    registry path: scenario twospanner on family cgnp, n = 10,000
//	serve  spannerd's handler on a loopback HTTP/2 server under an open
//	       loop of cache hits, inline-graph hits and unique misses
//
// Without --trace 1 the metrics are the end-to-end ones; with --trace 1
// the run records spans at each layer boundary, writes them to
// .bench_build/perfbench/spans/, and prints the per-layer metrics. See
// README.md in this directory.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"distspanner/internal/dist"
)

// metricDef names one reported metric.
type metricDef struct{ name, unit string }

// endToEnd are the untraced run's metrics; every workload reports each.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"latency_s", "s"},
	{"cpu_s", "s"},
	{"peak_rss_mb", "MiB"},
	{"slo_share", "share"},
}

// perLayer are the traced run's metrics; every workload reports each,
// with 0 for a layer the workload does not exercise (README.md lists
// which).
var perLayer = []metricDef{
	{"gen.build_s", "s"},
	{"span.verify_s", "s"},
	{"job.encode_s", "s"},
	{"job.unattributed_s", "s"},
	{"dist.step_s", "s"},
	{"dist.route_s", "s"},
	{"dist.sync_s", "s"},
	{"dist.round_wall_max_s", "s"},
	{"dist.rounds", "count"},
	{"dist.messages", "count"},
	{"dist.total_bits", "bits"},
	{"dist.active_steps", "count"},
	{"core.self_s", "s"},
	{"core.alloc_mb", "MiB"},
	{"core.gc_pause_s", "s"},
	{"core.gc_count", "count"},
	{"core.live_bytes_per_vertex", "B"},
	{"scenario.self_s", "s"},
	{"service.run_ms_mean", "ms"},
	{"service.cold_overhead_ms", "ms"},
	{"service.pool_busy_share", "share"},
	{"service.queue_max", "count"},
	{"service.graph_hash_ms", "ms"},
	{"service.hit_ratio", "share"},
	{"service.coalesced", "count"},
	{"service.evictions", "count"},
	{"service.time_share_step", "share"},
	{"service.time_share_route", "share"},
	{"service.time_share_sync", "share"},
	{"serve.hot_p50_ms", "ms"},
	{"serve.hot_p99_ms", "ms"},
	{"serve.cold_p50_ms", "ms"},
	{"serve.cold_p95_ms", "ms"},
	{"serve.inline_p50_ms", "ms"},
	{"serve.inline_p95_ms", "ms"},
	{"proc.cpu_s", "s"},
	{"loadgen.late_p99_ms", "ms"},
	{"trace.overhead_s", "s"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	traced   bool
}

// spansDir is where a traced run writes its span file, relative to the
// repository root the benchmark runs from.
var spansDir = filepath.Join(".bench_build", "perfbench", "spans")

// outcome is what a workload run hands back: operation counts, the
// reported metrics (by name, unit taken from the definitions) and the
// human-readable lines printed before the result.
type outcome struct {
	attempted, failed int
	values            map[string]float64
	lines             []string
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	fmt.Fprintf(os.Stderr, "perfbench: check failed: "+format+"\n", args...)
}

func (o *outcome) printf(format string, args ...any) {
	o.lines = append(o.lines, fmt.Sprintf(format, args...))
}

func main() {
	var cfg config
	var seconds int
	var trace int
	var probe bool
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: scale, gnp or serve")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	flag.IntVar(&seconds, "seconds", 25, "how long to measure, in seconds")
	flag.IntVar(&trace, "trace", 0, "1 records spans and reports the per-layer metrics")
	flag.BoolVar(&probe, "setup-probe", false, "internal: set the workload up, print ready, exit")
	flag.Parse()
	cfg.seconds = time.Duration(seconds) * time.Second
	cfg.traced = trace == 1

	if _, isJob := jobSpecs[cfg.workload]; !isJob && cfg.workload != "serve" {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want scale, gnp or serve)\n", cfg.workload)
		os.Exit(2)
	}
	if probe {
		if err := setupProbe(cfg); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: setup probe:", err)
			os.Exit(1)
		}
		return
	}

	out, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	defs := endToEnd
	if cfg.traced {
		defs = perLayer
	}
	res := result{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metricValue{}}
	for _, l := range out.lines {
		fmt.Println(l)
	}
	for _, d := range defs {
		v, ok := out.values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
		fmt.Printf("%-28s %14.6g %s\n", d.name, v, d.unit)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
	if !res.Correct {
		os.Exit(1)
	}
}

// run measures set-up in fresh processes, then runs the workload here.
func run(cfg config) (*outcome, error) {
	var setup float64
	if !cfg.traced {
		var err error
		if setup, err = measureSetup(cfg); err != nil {
			return nil, err
		}
	}
	var out *outcome
	var err error
	if cfg.workload == "serve" {
		out, err = runServe(cfg)
	} else {
		out, err = runJobs(cfg, jobSpecs[cfg.workload])
	}
	if err != nil {
		return nil, err
	}
	if !cfg.traced {
		out.values["setup_s"] = setup
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		out.values["peak_rss_mb"] = rss
	}
	return out, nil
}

// setupProbes is how many fresh processes measure set-up; the median is
// reported.
const setupProbes = 7

// measureSetup starts the benchmark setupProbes times in set-up-only
// mode and returns the median time from process start until the child
// reports it is ready for its first timed operation.
func measureSetup(cfg config) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	var ts []float64
	for i := 0; i < setupProbes; i++ {
		t, err := probeOnce(exe, cfg)
		if err != nil {
			return 0, fmt.Errorf("setup probe: %w", err)
		}
		ts = append(ts, t)
	}
	return median(ts), nil
}

func probeOnce(exe string, cfg config) (float64, error) {
	cmd := exec.Command(exe, "--setup-probe", "--workload", cfg.workload, "--seed", strconv.FormatInt(cfg.seed, 10))
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return 0, err
	}
	line, readErr := bufio.NewReader(stdout).ReadString('\n')
	elapsed := time.Since(t0).Seconds()
	waitErr := cmd.Wait()
	switch {
	case readErr != nil:
		return 0, fmt.Errorf("no ready line: %v (exit: %v)", readErr, waitErr)
	case line != "ready\n":
		return 0, fmt.Errorf("unexpected line %q", line)
	case waitErr != nil:
		return 0, waitErr
	}
	return elapsed, nil
}

// setupProbe is the child side of measureSetup: everything the workload
// does before its first timed operation, then "ready".
func setupProbe(cfg config) error {
	if cfg.workload == "serve" {
		env, err := startServe(makePlan(cfg.seed, cfg.seconds, false))
		if err != nil {
			return err
		}
		fmt.Println("ready")
		return env.close()
	}
	if err := jobSpecs[cfg.workload].warm(cfg.seed); err != nil {
		return err
	}
	fmt.Println("ready")
	return nil
}

// minJobs is the fewest jobs a run measures, however short --seconds.
const minJobs = 3

// runJobs runs a library-path workload: whole jobs back to back, each
// after a collection so it starts from a clean heap. Untraced, it
// reports the median job time; traced, it first measures the live heap
// per vertex, then alternates untraced and traced jobs and reports the
// per-layer medians of the traced ones.
func runJobs(cfg config, js jobSpec) (*outcome, error) {
	out := &outcome{values: map[string]float64{}}
	var rec *recorder
	if cfg.traced {
		rec = newRecorder()
	}
	var want uint64
	haveWant := false
	check := func(dg uint64, err error, what string) bool {
		out.attempted++
		switch {
		case err != nil:
			out.fail("%s: %v", what, err)
			return false
		case haveWant && dg != want:
			out.fail("%s: output digest %016x differs from the first job's %016x", what, dg, want)
			return false
		}
		want, haveWant = dg, true
		return true
	}

	if err := js.warm(cfg.seed); err != nil {
		return nil, err
	}
	if cfg.traced {
		perV, dg, err := liveBytesPerVertex(js, cfg.seed)
		check(dg, err, "memory-probe job")
		out.values["core.live_bytes_per_vertex"] = perV
	}

	var walls, cpus, tracedWalls []float64
	var traces []jobTrace
	var layers []*layerRun
	inLimit := 0
	start := time.Now()
	least := minJobs
	if cfg.traced {
		least *= 2 // half the jobs are traced
	}
	var wantLayers uint64
	for i := 0; i < least || time.Since(start) < cfg.seconds; i++ {
		tracedJob := cfg.traced && i%2 == 1
		runtime.GC()
		var tr jobTrace
		var jobRec *recorder
		if tracedJob {
			jobRec = rec
		}
		c0 := cpuTime()
		t0 := time.Now()
		dg, err := js.run(cfg.seed, jobRec, &tr, nil)
		wall := time.Since(t0)
		cpu := cpuTime() - c0
		ok := check(dg, err, fmt.Sprintf("job %d", i))
		if ok && wall <= js.limit {
			inLimit++
		}
		if !tracedJob {
			walls = append(walls, wall.Seconds())
			cpus = append(cpus, cpu.Seconds())
			continue
		}
		tracedWalls = append(tracedWalls, wall.Seconds())
		traces = append(traces, tr)
		if js.decompose != nil && ok {
			runtime.GC()
			parent := rec.open("decompose", -1)
			lr, err := js.decompose(cfg.seed, rec, parent)
			rec.close(parent)
			out.attempted++
			switch {
			case err != nil:
				out.fail("job %d decomposition: %v", i, err)
			case tr.metrics != nil && !statsMatch(tr.metrics, lr.stats):
				out.fail("job %d: direct engine run's stats differ from the scenario's metrics", i)
			case len(layers) > 0 && lr.digest != wantLayers:
				out.fail("job %d decomposition: output digest %016x differs from the first's %016x", i, lr.digest, wantLayers)
			default:
				wantLayers = lr.digest
				layers = append(layers, lr)
			}
		}
	}

	out.values["latency_s"] = median(walls)
	out.values["cpu_s"] = median(cpus)
	out.values["slo_share"] = float64(inLimit) / float64(out.attempted)
	out.printf("workload %s seed %d: %d jobs (%d untraced), median job %.4f s, digest %016x",
		cfg.workload, cfg.seed, out.attempted, len(walls), median(walls), want)
	if !cfg.traced {
		return out, nil
	}
	out.values["proc.cpu_s"] = out.values["cpu_s"]
	out.values["trace.overhead_s"] = median(tracedWalls) - median(walls)
	jobLayerMetrics(out, rec, traces, layers)

	path := filepath.Join(spansDir, fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed))
	meta := map[string]any{"workload": cfg.workload, "seed": cfg.seed, "digest": fmt.Sprintf("%016x", want)}
	if err := rec.write(path, meta); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	out.printf("spans: %s (%d spans)", path, len(rec.spans))
	return out, nil
}

// jobLayerMetrics fills the per-layer metrics of a traced job workload
// (medians over the traced jobs) and prints the self-time account of
// the median traced job.
func jobLayerMetrics(out *outcome, rec *recorder, traces []jobTrace, layers []*layerRun) {
	per := map[string][]float64{}
	add := func(k string, v float64) { per[k] = append(per[k], v) }
	var walls []float64
	for _, tr := range traces {
		self := selfByName(rec.spans, tr.root)
		walls = append(walls, rec.spans[tr.root].seconds())
		add("job.unattributed_s", self["job"])
		add("job.encode_s", self["encode"])
		if tr.metrics != nil { // scenario path: layers come from the decomposition
			continue
		}
		add("gen.build_s", self["gen.build"])
		add("span.verify_s", self["span.verify"])
		add("core.self_s", self["core.run"])
		add("dist.step_s", self["dist.step"])
		add("dist.route_s", self["dist.route"])
		add("dist.sync_s", self["dist.sync"])
		add("dist.round_wall_max_s", tr.phases.wallMax.Seconds())
		addMem(add, tr.mem)
		addStats(add, tr.stats)
	}
	for i, lr := range layers {
		add("gen.build_s", lr.build.Seconds())
		add("span.verify_s", lr.verify.Seconds())
		add("core.self_s", (lr.engine - lr.phases.step - lr.phases.route - lr.phases.sync).Seconds())
		add("dist.step_s", lr.phases.step.Seconds())
		add("dist.route_s", lr.phases.route.Seconds())
		add("dist.sync_s", lr.phases.sync.Seconds())
		add("dist.round_wall_max_s", lr.phases.wallMax.Seconds())
		addMem(add, lr.mem)
		addStats(add, lr.stats)
		if i < len(traces) {
			add("scenario.self_s", (traces[i].scenarioRun - lr.build - lr.engine - lr.verify).Seconds())
		}
	}
	for k, vs := range per {
		out.values[k] = median(vs)
	}
	if len(traces) == 0 || traces[0].metrics != nil {
		return
	}
	// The self-time account of the median traced job: its layers' self
	// times sum to its wall time exactly; the job span's own self time is
	// the unattributed remainder.
	med := median(walls)
	mid := traces[0].root
	for _, tr := range traces {
		if math.Abs(rec.spans[tr.root].seconds()-med) < math.Abs(rec.spans[mid].seconds()-med) {
			mid = tr.root
		}
	}
	self := selfByName(rec.spans, mid)
	out.printf("self-time account of the median traced job (%.4f s):", rec.spans[mid].seconds())
	var sum float64
	for _, k := range []string{"gen.build", "core.run", "dist.step", "dist.route", "dist.sync", "span.verify", "encode"} {
		out.printf("  %-12s %.4f s", k, self[k])
		sum += self[k]
	}
	out.printf("  %-12s %.4f s (unattributed remainder)", "job", self["job"])
	out.printf("  layers %.4f s + remainder %.4f s = %.4f s", sum, self["job"], sum+self["job"])
}

func addMem(add func(string, float64), m memDelta) {
	add("core.alloc_mb", m.allocMB)
	add("core.gc_pause_s", m.gcPause.Seconds())
	add("core.gc_count", float64(m.gcCount))
}

func addStats(add func(string, float64), st dist.Stats) {
	add("dist.rounds", float64(st.Rounds))
	add("dist.messages", float64(st.Messages))
	add("dist.total_bits", float64(st.TotalBits))
	add("dist.active_steps", float64(st.ActiveSteps))
}
