// Algorithm-level reproducibility: for a fixed seed, the distributed
// algorithms are deterministic end to end — identical edge sets AND
// identical engine statistics across runs, independent of how steps are
// sharded across goroutines. CI additionally runs these under -race,
// where the scheduler is deliberately perturbed.
package distspanner_test

import (
	"reflect"
	"testing"

	"distspanner"
	"distspanner/internal/core"
	"distspanner/internal/dist"
	"distspanner/internal/graph"
	"distspanner/internal/mds"
)

func TestBuild2SpannerReproducible(t *testing.T) {
	g := distspanner.RandomGraph(40, 0.25, 17)
	var first *distspanner.Result
	for run := 0; run < 3; run++ {
		res, err := distspanner.Build2Spanner(g, distspanner.Options{Seed: 99})
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = res
			continue
		}
		if !first.Spanner.Equal(res.Spanner) {
			t.Fatalf("run %d: spanner differs from run 0", run)
		}
		if first.Stats != res.Stats {
			t.Fatalf("run %d: stats differ:\n%+v\n%+v", run, first.Stats, res.Stats)
		}
		if first.Iterations != res.Iterations || first.Cost != res.Cost {
			t.Fatalf("run %d: telemetry differs", run)
		}
	}
}

func TestBuildMDSReproducible(t *testing.T) {
	g := distspanner.RandomGraph(40, 0.2, 23)
	var first *distspanner.MDSResult
	for run := 0; run < 3; run++ {
		res, err := distspanner.BuildMDS(g, distspanner.MDSOptions{Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = res
			continue
		}
		if !reflect.DeepEqual(first.DominatingSet, res.DominatingSet) {
			t.Fatalf("run %d: dominating set differs from run 0", run)
		}
		if first.Stats != res.Stats {
			t.Fatalf("run %d: stats differ:\n%+v\n%+v", run, first.Stats, res.Stats)
		}
	}
}

// TestCrossModeTranscriptsIdentical is the engine's correctness contract
// at the algorithm level: for a fixed (graph, seed), the public API run
// on the step engine and the same protocol run by the sequential
// reference interpreter (dist.RunReference) must produce bit-identical
// transcripts — the same spanner edge set, the same dominating set, and
// the same engine statistics (rounds, messages, bits), field for field.
func TestCrossModeTranscriptsIdentical(t *testing.T) {
	g := distspanner.RandomGraph(60, 0.15, 41)
	base, err := distspanner.Build2Spanner(g, distspanner.Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	prog := core.TwoSpannerProgram(g, core.Options{Seed: 5})
	stats, err := dist.RunReference(dist.Config{Graph: g, Seed: 5}, prog.Factory)
	if err != nil {
		t.Fatal(err)
	}
	ref := graph.NewEdgeSet(g.M())
	for v := 0; v < g.N(); v++ {
		for _, e := range prog.Output(v) {
			ref.Add(e)
		}
	}
	if !base.Spanner.Equal(ref) {
		t.Fatal("2-spanner edge sets differ between the engine and the reference")
	}
	if base.Stats != *stats {
		t.Fatalf("2-spanner stats differ:\nengine:    %+v\nreference: %+v", base.Stats, *stats)
	}

	mg := distspanner.RandomGraph(48, 0.18, 13)
	mb, err := distspanner.BuildMDS(mg, distspanner.MDSOptions{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	mprog := mds.Program(mg, mds.Options{Seed: 9})
	mstats, err := dist.RunReference(dist.Config{
		Graph: mg, Seed: 9, Bandwidth: mds.DefaultBandwidth(mg.N()), Enforce: true,
	}, mprog.Factory)
	if err != nil {
		t.Fatal(err)
	}
	var ds []int
	for v := 0; v < mg.N(); v++ {
		if len(mprog.Output(v)) > 0 {
			ds = append(ds, v)
		}
	}
	if !reflect.DeepEqual(mb.DominatingSet, ds) || mb.Stats != *mstats {
		t.Fatalf("MDS transcripts differ:\nengine:    %v %+v\nreference: %v %+v",
			mb.DominatingSet, mb.Stats, ds, *mstats)
	}
}

func TestCongestRunReproducible(t *testing.T) {
	g := distspanner.RandomGraph(14, 0.4, 31)
	a, err := distspanner.Build2SpannerCongest(g, distspanner.Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	b, err := distspanner.Build2SpannerCongest(g, distspanner.Options{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !a.Spanner.Equal(b.Spanner) || a.Stats != b.Stats || a.Subrounds != b.Subrounds {
		t.Fatal("CONGEST execution is not reproducible for a fixed seed")
	}
}
