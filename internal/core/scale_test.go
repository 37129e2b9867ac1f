package core

import (
	"testing"

	"distspanner/internal/dist"
	"distspanner/internal/gen"
	"distspanner/internal/graph"
	"distspanner/internal/span"
)

// ringChords returns a degree-4 ring with chords: deterministic, cheap to
// build at any size, and sparse enough that the 2-spanner converges in a
// bounded number of iterations independent of n — the scale-test family.
func ringChords(n int) *graph.Graph {
	g := graph.New(n)
	for v := 0; v < n; v++ {
		g.AddEdge(v, (v+1)%n)
		g.AddEdge(v, (v+2)%n)
	}
	return g
}

// hubRing is ringChords plus planted hub stars every `spacing` vertices
// (each hub also linked to the `span` vertices ahead of it): the hubs are
// locally-densest stars, so the run exercises real candidacy, voting, and
// fringe parking instead of terminating on the first density check.
func hubRing(n, spacing, span int) *graph.Graph {
	g := ringChords(n)
	for h := 0; h < n; h += spacing {
		for j := 3; j < span; j++ {
			g.AddEdge(h, (h+j)%n)
		}
	}
	return g
}

// TestTwoSpannerMillionVertexStep is the scale contract of the
// goroutine-free step engine: a full two-spanner run at n = 1,000,000 on
// one box. The blocking engines cannot touch this size (a million
// goroutine stacks); the step engine holds one small machine struct per
// vertex and scans the active set. Skipped under -short — CI's full test
// job runs it.
func TestTwoSpannerMillionVertexStep(t *testing.T) {
	if testing.Short() {
		t.Skip("million-vertex smoke test skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("million-vertex smoke test skipped under the race detector")
	}
	const n = 1_000_000
	g := hubRing(n, 2048, 256)
	res, err := TwoSpanner(g, Options{Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	if !span.IsKSpanner(g, res.Spanner, 2) {
		t.Fatal("invalid 2-spanner at n=1e6")
	}
	if res.Stats.Rounds == 0 || res.Stats.Messages == 0 {
		t.Fatalf("implausible stats: %+v", res.Stats)
	}
	t.Logf("n=%d: %d spanner edges, %d iterations, %d rounds, %d messages",
		n, res.Spanner.Len(), res.Iterations, res.Stats.Rounds, res.Stats.Messages)
}

// runTwoSpannerProgram runs TwoSpannerProgram on cfg under run (the step
// engine or the reference interpreter) and returns the spanner it
// outputs and the run's Stats.
func runTwoSpannerProgram(t *testing.T, run func(dist.Config, func(*dist.Ctx) dist.Machine) (*dist.Stats, error), cfg dist.Config) (*graph.EdgeSet, dist.Stats) {
	t.Helper()
	prog := TwoSpannerProgram(cfg.Graph, Options{Seed: cfg.Seed})
	stats, err := run(cfg, prog.Factory)
	if err != nil {
		t.Fatal(err)
	}
	h := graph.NewEdgeSet(cfg.Graph.M())
	for v := 0; v < cfg.Graph.N(); v++ {
		for _, e := range prog.Output(v) {
			h.Add(e)
		}
	}
	return h, *stats
}

// TestCrossModeByteEqualityLarge extends the engine-vs-reference
// transcript contract to a size where the engine shards its steps and
// metering across workers: at n = 4096 the step engine and the
// reference interpreter must produce byte-identical spanners and Stats
// on both the busy G(n, 8/n) workload and the ring+chords scale-test
// family.
func TestCrossModeByteEqualityLarge(t *testing.T) {
	if testing.Short() {
		t.Skip("n=4096 engine-vs-reference equality skipped in -short mode")
	}
	const n = 4096
	graphs := map[string]*graph.Graph{
		"gnp":        gen.ConnectedGNP(n, 8.0/float64(n), 1),
		"ringchords": ringChords(n),
	}
	for name, g := range graphs {
		cfg := dist.Config{Graph: g, Seed: 11}
		engH, engStats := runTwoSpannerProgram(t, dist.RunMachines, cfg)
		refH, refStats := runTwoSpannerProgram(t, dist.RunReference, cfg)
		if !engH.Equal(refH) {
			t.Fatalf("%s: spanner differs between the engine and the reference", name)
		}
		if engStats != refStats {
			t.Fatalf("%s: stats differ:\nengine:    %+v\nreference: %+v", name, engStats, refStats)
		}
		// The public entry point runs the same program on the same engine.
		res, err := TwoSpanner(g, Options{Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		if !res.Spanner.Equal(engH) || res.Stats != engStats {
			t.Fatalf("%s: TwoSpanner differs from its shard program", name)
		}
	}
}
