package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"sort"
	"time"

	"distspanner/internal/core"
	"distspanner/internal/dist"
	"distspanner/internal/graph"
	"distspanner/internal/mds"
	"distspanner/internal/scenario"
	"distspanner/internal/span"
	"distspanner/internal/trace"
)

// roundClock is the dist.Tracer the traced runs install: the engine's
// timing channel through trace.TimingRecorder, plus the moment each
// round's measurement arrived, so rounds can be laid out as spans.
type roundClock struct {
	trace.TimingRecorder
	ends []time.Time
}

func (c *roundClock) RoundTime(t dist.RoundTiming) {
	c.ends = append(c.ends, time.Now())
	c.TimingRecorder.RoundTime(t)
}

// phaseTotals is the engine's time split summed over a run's rounds.
type phaseTotals struct {
	step, route, sync, wallMax time.Duration
}

// emit records each round's step/route/sync as consecutive child spans
// of parent, ending where the round's measurement arrived, and returns
// the totals. A nil recorder still returns the totals.
func (c *roundClock) emit(rec *recorder, parent int) phaseTotals {
	var tot phaseTotals
	for i, t := range c.Timings() {
		tot.step += t.Step
		tot.route += t.Route
		tot.sync += t.Sync
		tot.wallMax = max(tot.wallMax, t.Wall)
		at := c.ends[i].Add(-t.Wall)
		for _, ph := range []struct {
			name string
			d    time.Duration
		}{{"dist.step", t.Step}, {"dist.route", t.Route}, {"dist.sync", t.Sync}} {
			rec.add(ph.name, parent, at, at.Add(ph.d), nil)
			at = at.Add(ph.d)
		}
	}
	return tot
}

// layerRun is one scenario job redone as separate calls into the layers'
// public functions — graph construction, the engine, verification — so
// each layer's share of the scenario's Run can be timed from outside.
type layerRun struct {
	build, engine, verify time.Duration
	phases                phaseTotals
	mem                   memDelta
	stats                 dist.Stats
	digest                uint64 // output ids and Stats
}

// decompose redoes the job (scenario sc at cell p, seed) layer by layer,
// recording gen.build, core.run (with per-round dist children) and
// span.verify spans under parent. A failed verification is an error.
func decompose(rec *recorder, parent int, sc string, p scenario.Params, seed int64) (*layerRun, error) {
	lr := &layerRun{}
	clock := &roundClock{}
	copts := core.Options{Seed: seed, Tracer: clock}

	t0 := time.Now()
	var g *graph.Graph
	var d *graph.Digraph
	var err error
	if sc == "twospanner-directed" {
		d, err = scenario.GraphSpec{}.BuildDigraph(p, seed)
	} else {
		g, err = scenario.GraphSpec{}.Build(p, seed)
	}
	t1 := time.Now()
	rec.add("gen.build", parent, t0, t1, nil)
	if err != nil {
		return nil, err
	}
	lr.build = t1.Sub(t0)

	var edges *graph.EdgeSet
	var ds []int
	ms := memSnapshot()
	coreID := rec.open("core.run", parent)
	t1 = time.Now()
	switch sc {
	case "twospanner":
		var res *core.Result
		if res, err = core.TwoSpanner(g, copts); err == nil {
			edges, lr.stats = res.Spanner, res.Stats
		}
	case "twospanner-congest":
		var res *core.CongestResult
		if res, err = core.TwoSpannerCongest(g, copts); err == nil {
			edges, lr.stats = res.Spanner, res.Stats
		}
	case "twospanner-directed":
		var res *core.Result
		if res, err = core.DirectedTwoSpanner(d, copts); err == nil {
			edges, lr.stats = res.Spanner, res.Stats
		}
	case "mds":
		var res *mds.Result
		if res, err = mds.Run(g, mds.Options{Seed: seed, Bandwidth: p.Int("bandwidth", 0), Tracer: clock}); err == nil {
			ds, lr.stats = res.DominatingSet, res.Stats
		}
	default:
		err = fmt.Errorf("no layer decomposition for scenario %q", sc)
	}
	t2 := time.Now()
	rec.close(coreID)
	lr.mem = memSince(ms)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", sc, err)
	}
	lr.engine = t2.Sub(t1)
	lr.phases = clock.emit(rec, coreID)

	var ok bool
	switch {
	case sc == "mds":
		ok = dominates(g, ds)
		lr.digest = digestInts(ds, lr.stats)
	case d != nil:
		ok = span.IsDirectedKSpanner(d, edges, 2)
		lr.digest = digestInts(edges.Slice(), lr.stats)
	default:
		st := span.Stretch(g, edges, 2)
		ok = span.IsKSpanner(g, edges, 2) && st.Max >= 0 && st.Max <= 2
		lr.digest = digestInts(edges.Slice(), lr.stats)
	}
	t3 := time.Now()
	rec.add("span.verify", parent, t2, t3, nil)
	lr.verify = t3.Sub(t2)
	if !ok {
		return nil, fmt.Errorf("%s: output fails verification", sc)
	}
	return lr, nil
}

// dominates reports whether every vertex of g is in ds or adjacent to it.
func dominates(g *graph.Graph, ds []int) bool {
	in := make([]bool, g.N())
	for _, v := range ds {
		if v < 0 || v >= g.N() {
			return false
		}
		in[v] = true
	}
	for v := 0; v < g.N(); v++ {
		if in[v] {
			continue
		}
		covered := false
		for _, u := range g.Neighbors(v) {
			if in[u] {
				covered = true
				break
			}
		}
		if !covered {
			return false
		}
	}
	return true
}

// digestInts is an FNV-64a digest of an output id set and the engine's
// Stats: equal digests mean the same output and the same metered
// transcript totals.
func digestInts(ids []int, st dist.Stats) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(x int64) {
		binary.LittleEndian.PutUint64(buf[:], uint64(x))
		h.Write(buf[:])
	}
	put(int64(len(ids)))
	for _, id := range ids {
		put(int64(id))
	}
	for _, x := range []int64{int64(st.Rounds), st.Messages, st.TotalBits, int64(st.MaxMessageBits),
		int64(st.MaxEdgeRoundBits), st.CutBits, st.BandwidthViolations, st.ActiveSteps, st.ParkedSteps, int64(st.PeakActive)} {
		put(x)
	}
	return h.Sum64()
}

// timingKeys are the wall-clock columns the execution-only timing
// parameter adds to a scenario's metrics; they are not part of the
// deterministic output.
var timingKeys = map[string]bool{
	"round_wall_ns_mean": true, "round_wall_ns_max": true,
	"time_share_step": true, "time_share_route": true, "time_share_sync": true,
}

// digestMetrics is an FNV-64a digest of a scenario's deterministic
// metrics (timing columns excluded), in sorted key order.
func digestMetrics(m scenario.Metrics) uint64 {
	keys := make([]string, 0, len(m))
	for k := range m {
		if !timingKeys[k] {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	h := fnv.New64a()
	for _, k := range keys {
		fmt.Fprintf(h, "%s=%v;", k, m[k])
	}
	return h.Sum64()
}

// statsMatch reports whether a scenario's metered metrics equal the
// Stats of a direct engine run of the same job.
func statsMatch(m scenario.Metrics, st dist.Stats) bool {
	return m["rounds"] == float64(st.Rounds) && m["messages"] == float64(st.Messages) &&
		m["total_bits"] == float64(st.TotalBits) && m["active_steps"] == float64(st.ActiveSteps)
}
