package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"runtime"
	"strconv"
	"time"

	"distspanner/internal/core"
	"distspanner/internal/dist"
	"distspanner/internal/graph"
	"distspanner/internal/scenario"
	"distspanner/internal/span"
)

// The scale workload's instance: a degree-4 ring with chords plus a
// planted hub star every scaleSpacing vertices, each hub linked to the
// scaleSpan vertices ahead of it (the core package's scale-test family).
const (
	scaleN       = 100_000
	scaleSpacing = 2048
	scaleSpan    = 256
)

// hubRing builds the scale workload's graph.
func hubRing(n, spacing, span int) *graph.Graph {
	g := graph.New(n)
	for v := 0; v < n; v++ {
		g.AddEdge(v, (v+1)%n)
		g.AddEdge(v, (v+2)%n)
	}
	for h := 0; h < n; h += spacing {
		for j := 3; j < span; j++ {
			g.AddEdge(h, (h+j)%n)
		}
	}
	return g
}

const gnpN = 10_000

// warmN is the size of the instance a job workload warms up on.
const warmN = 1000

// gnpCell is the gnp workload's scenario cell: the registry's twospanner
// on a connected G(n, p) the generator draws from the job seed.
func gnpCell() (*scenario.Scenario, scenario.Params) {
	sc, ok := scenario.Get("twospanner")
	if !ok {
		panic("twospanner scenario is not registered")
	}
	return sc, sc.Defaults.Merge(scenario.Params{"family": "cgnp", "n": strconv.Itoa(gnpN), "p": "0.0008"})
}

// jobTrace is what a traced job leaves behind besides its spans.
type jobTrace struct {
	root   int
	phases phaseTotals
	mem    memDelta
	stats  dist.Stats
	// scenarioRun is the wall time of the scenario's Run (gnp only).
	scenarioRun time.Duration
	metrics     scenario.Metrics
}

// jobSpec is one of the library-path workloads.
type jobSpec struct {
	// run performs one whole job, input to verified, encoded result, and
	// returns the output digest. With a recorder it also records spans
	// and fills the trace; hook, when set, is installed as the engine's
	// round hook.
	run func(seed int64, rec *recorder, tr *jobTrace, hook func(dist.RoundActivity)) (uint64, error)
	// decompose, when set, redoes a traced job layer by layer (for jobs
	// whose layers are not separately reachable inside one call).
	decompose func(seed int64, rec *recorder, parent int) (*layerRun, error)
	// warm runs the job once on a warmN-vertex instance: the workload's
	// set-up, so first-call costs do not land on the first timed job.
	warm func(seed int64) error
	// n is the instance's vertex count.
	n int
	// limit is the latency limit a job must meet to count toward
	// slo_share.
	limit time.Duration
}

var jobSpecs = map[string]jobSpec{
	"scale": {run: scaleJob, warm: scaleWarm, n: scaleN, limit: 30 * time.Second},
	"gnp":   {run: gnpJob, warm: gnpWarm, decompose: gnpDecompose, n: gnpN, limit: 30 * time.Second},
}

// scaleDoc is the scale job's encoded result.
type scaleDoc struct {
	N           int        `json:"n"`
	M           int        `json:"m"`
	Seed        int64      `json:"seed"`
	Spanner     []int      `json:"spanner_edges"`
	Stats       dist.Stats `json:"stats"`
	Iterations  int        `json:"iterations"`
	Cost        float64    `json:"cost"`
	StretchMax  int        `json:"stretch_max"`
	StretchMean float64    `json:"stretch_mean"`
}

// scaleJob: hubRing → core.TwoSpanner (default engine) → span.IsKSpanner
// + span.Stretch → JSON. The digest is over the encoded document, which
// holds the spanner's edge set and the engine's Stats.
func scaleJob(seed int64, rec *recorder, tr *jobTrace, hook func(dist.RoundActivity)) (uint64, error) {
	root := rec.open("job", -1)
	defer rec.close(root)

	t0 := time.Now()
	g := hubRing(scaleN, scaleSpacing, scaleSpan)
	t1 := time.Now()
	rec.add("gen.build", root, t0, t1, nil)

	opts := core.Options{Seed: seed, RoundHook: hook}
	var clock *roundClock
	var ms runtime.MemStats
	if rec != nil {
		clock = &roundClock{}
		opts.Tracer = clock
		ms = memSnapshot()
	}
	coreID := rec.open("core.run", root)
	res, err := core.TwoSpanner(g, opts)
	rec.close(coreID)
	if err != nil {
		return 0, fmt.Errorf("scale: %w", err)
	}
	if rec != nil {
		tr.mem = memSince(ms)
		tr.phases = clock.emit(rec, coreID)
		tr.root, tr.stats = root, res.Stats
	}

	t2 := time.Now()
	ok := span.IsKSpanner(g, res.Spanner, 2)
	st := span.Stretch(g, res.Spanner, 2)
	t3 := time.Now()
	rec.add("span.verify", root, t2, t3, nil)
	if !ok || st.Max < 0 || st.Max > 2 || res.Fallbacks != 0 {
		return 0, fmt.Errorf("scale: output is not a valid 2-spanner (stretch %d, fallbacks %d)", st.Max, res.Fallbacks)
	}

	b, err := json.Marshal(scaleDoc{
		N: g.N(), M: g.M(), Seed: seed, Spanner: res.Spanner.Slice(), Stats: res.Stats,
		Iterations: res.Iterations, Cost: res.Cost, StretchMax: st.Max, StretchMean: st.Mean,
	})
	rec.add("encode", root, t3, time.Now(), nil)
	if err != nil {
		return 0, fmt.Errorf("scale: encode: %w", err)
	}
	h := fnv.New64a()
	h.Write(b)
	return h.Sum64(), nil
}

func scaleWarm(seed int64) error {
	g := hubRing(warmN, scaleSpacing, scaleSpan)
	res, err := core.TwoSpanner(g, core.Options{Seed: seed})
	if err != nil {
		return fmt.Errorf("scale warm-up: %w", err)
	}
	if !span.IsKSpanner(g, res.Spanner, 2) {
		return fmt.Errorf("scale warm-up: output is not a 2-spanner")
	}
	return nil
}

// gnpJob: the registry's twospanner scenario on family=cgnp (graph
// build, engine, verification and reference inside Run) → JSON. A traced
// job sets the execution-only timing parameter, which installs the
// engine's timing tracer. The digest is over the deterministic metrics.
func gnpJob(seed int64, rec *recorder, tr *jobTrace, hook func(dist.RoundActivity)) (uint64, error) {
	sc, p := gnpCell()
	if rec != nil {
		p = p.Merge(scenario.Params{"timing": "true"})
	}
	if hook != nil {
		token, release := scenario.RegisterObserver(hook)
		defer release()
		p = p.Merge(scenario.Params{"obs": token})
	}
	root := rec.open("job", -1)
	defer rec.close(root)

	t0 := time.Now()
	m, err := sc.Run(p, seed, nil)
	t1 := time.Now()
	rec.add("scenario.run", root, t0, t1, nil)
	if err != nil {
		return 0, fmt.Errorf("gnp: %w", err)
	}
	if m["valid"] != 1 || m["fallbacks"] != 0 {
		return 0, fmt.Errorf("gnp: output fails verification (valid %v, fallbacks %v)", m["valid"], m["fallbacks"])
	}
	_, err = json.Marshal(m)
	rec.add("encode", root, t1, time.Now(), nil)
	if err != nil {
		return 0, fmt.Errorf("gnp: encode: %w", err)
	}
	if rec != nil {
		tr.root, tr.scenarioRun, tr.metrics = root, t1.Sub(t0), m
	}
	return digestMetrics(m), nil
}

func gnpWarm(seed int64) error {
	sc, p := gnpCell()
	m, err := sc.Run(p.Merge(scenario.Params{"n": strconv.Itoa(warmN), "p": "0.008"}), seed, nil)
	if err != nil {
		return fmt.Errorf("gnp warm-up: %w", err)
	}
	if m["valid"] != 1 {
		return fmt.Errorf("gnp warm-up: output is not a 2-spanner")
	}
	return nil
}

func gnpDecompose(seed int64, rec *recorder, parent int) (*layerRun, error) {
	_, p := gnpCell()
	return decompose(rec, parent, "twospanner", p, seed)
}

// liveBytesPerVertex runs one job with a round hook that collects
// garbage after every round and returns the largest live heap seen,
// divided by the vertex count.
func liveBytesPerVertex(js jobSpec, seed int64) (float64, uint64, error) {
	probe := &liveHeapProbe{}
	runtime.GC()
	dg, err := js.run(seed, nil, nil, func(dist.RoundActivity) { probe.observe() })
	if err != nil {
		return 0, 0, err
	}
	return float64(probe.maxLive) / float64(js.n), dg, nil
}
