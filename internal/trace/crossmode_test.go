package trace

import (
	"fmt"
	"testing"

	"distspanner/internal/core"
	"distspanner/internal/dist"
	"distspanner/internal/distrun"
	"distspanner/internal/gen"
	"distspanner/internal/graph"
	"distspanner/internal/mds"
)

// Engine-vs-reference digest equality — the acceptance test of the one
// engine: every algorithm family, on scenario-representative instances,
// run through its public entry point on the step engine, must produce
// the identical logical transcript (same Digest) as its distrun shard
// program run by the sequential reference interpreter. The digest
// collapses the full per-vertex transcript, so any divergence in
// message content, order, lifecycle, or per-round activity fails here.

// algoFamilies enumerates the dist-engine algorithm families the
// scenario registry exposes, each run the way its scenario runs it. The
// names are the distrun registry keys, whose programs derive the same
// auxiliary inputs (orientations, splits, weights) from (g, seed).
var algoFamilies = []struct {
	name string
	run  func(g *graph.Graph, seed int64, tr dist.Tracer) error
}{
	{"twospanner", func(g *graph.Graph, seed int64, tr dist.Tracer) error {
		_, err := core.TwoSpanner(g, core.Options{Seed: seed, Tracer: tr})
		return err
	}},
	{"congest", func(g *graph.Graph, seed int64, tr dist.Tracer) error {
		_, err := core.TwoSpannerCongest(g, core.Options{Seed: seed, Tracer: tr})
		return err
	}},
	{"directed", func(g *graph.Graph, seed int64, tr dist.Tracer) error {
		d := gen.OrientRandomly(g, 0.3, seed)
		_, err := core.DirectedTwoSpanner(d, core.Options{Seed: seed, Tracer: tr})
		return err
	}},
	{"cs", func(g *graph.Graph, seed int64, tr dist.Tracer) error {
		clients, servers := gen.ClientServerSplit(g, 0.5, 0.8, seed)
		_, err := core.ClientServerTwoSpanner(g, clients, servers, core.Options{Seed: seed, Tracer: tr})
		return err
	}},
	{"weighted", func(g *graph.Graph, seed int64, tr dist.Tracer) error {
		wg := g.Clone()
		gen.RandomWeights(wg, 1, 8, seed)
		_, err := core.TwoSpanner(wg, core.Options{Seed: seed, Tracer: tr})
		return err
	}},
	{"mds", func(g *graph.Graph, seed int64, tr dist.Tracer) error {
		_, err := mds.Run(g, mds.Options{Seed: seed, Tracer: tr})
		return err
	}},
}

// referenceRun runs the named family's distrun program on (g, seed)
// under the reference interpreter.
func referenceRun(name string, g *graph.Graph, seed int64, tr dist.Tracer) error {
	f, ok := distrun.Get(name)
	if !ok {
		return fmt.Errorf("no distrun family %q", name)
	}
	prog, cfg, err := f.Local(g, seed)
	if err != nil {
		return err
	}
	cfg.Tracer = tr
	_, err = dist.RunReference(cfg, prog.Factory)
	return err
}

func TestCrossModeDigestEquality(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"gnp48":    gen.ConnectedGNP(48, 0.15, 1),
		"clique12": gen.Clique(12),
		"grid6":    gen.Grid(6, 6),
	}
	for _, fam := range algoFamilies {
		for gname, g := range graphs {
			for seed := int64(1); seed <= 2; seed++ {
				t.Run(fmt.Sprintf("%s/%s/seed=%d", fam.name, gname, seed), func(t *testing.T) {
					eng, ref := NewRecorder(g.N()), NewRecorder(g.N())
					if err := fam.run(g, seed, eng); err != nil {
						t.Fatalf("engine: %v", err)
					}
					if err := referenceRun(fam.name, g, seed, ref); err != nil {
						t.Fatalf("reference: %v", err)
					}
					if eng.EventCount() == 0 {
						t.Fatal("engine recorded no events")
					}
					d, want := eng.Digest(), ref.Digest()
					if d.Equal(want) {
						return
					}
					t.Errorf("engine digest %s diverged from reference digest %s", d.Run, want.Run)
					for v := range d.Vertex {
						if d.Vertex[v] != want.Vertex[v] {
							t.Errorf("  first diverging vertex: %d", v)
							break
						}
					}
				})
			}
		}
	}
}
