package trace

import (
	"fmt"
	"testing"

	"distspanner/internal/core"
	"distspanner/internal/dist"
	"distspanner/internal/gen"
	"distspanner/internal/graph"
	"distspanner/internal/mds"
)

// Sharding analogue of the engine-vs-reference test: the logical transcript must
// be invariant under the shard count. Running a family distributed
// across 1, 2, 4, or 7 shard workers (Options.Shards, in-process
// channel transport) must produce per-vertex digests identical to the
// unsharded step engine — partitioning is an execution detail, not an
// algorithm input.

var shardCounts = []int{1, 2, 4, 7}

// shardFamilies mirrors algoFamilies with a shard-count knob; the
// reference is shards == 0 (the unsharded step engine).
var shardFamilies = []struct {
	name string
	run  func(g *graph.Graph, seed int64, shards int, tr dist.Tracer) error
}{
	{"twospanner", func(g *graph.Graph, seed int64, shards int, tr dist.Tracer) error {
		_, err := core.TwoSpanner(g, core.Options{Seed: seed, Shards: shards, Tracer: tr})
		return err
	}},
	{"congest", func(g *graph.Graph, seed int64, shards int, tr dist.Tracer) error {
		_, err := core.TwoSpannerCongest(g, core.Options{Seed: seed, Shards: shards, Tracer: tr})
		return err
	}},
	{"directed", func(g *graph.Graph, seed int64, shards int, tr dist.Tracer) error {
		d := gen.OrientRandomly(g, 0.3, seed)
		_, err := core.DirectedTwoSpanner(d, core.Options{Seed: seed, Shards: shards, Tracer: tr})
		return err
	}},
	{"cs", func(g *graph.Graph, seed int64, shards int, tr dist.Tracer) error {
		clients, servers := gen.ClientServerSplit(g, 0.5, 0.8, seed)
		_, err := core.ClientServerTwoSpanner(g, clients, servers, core.Options{Seed: seed, Shards: shards, Tracer: tr})
		return err
	}},
	{"weighted", func(g *graph.Graph, seed int64, shards int, tr dist.Tracer) error {
		wg := g.Clone()
		gen.RandomWeights(wg, 1, 8, seed)
		_, err := core.TwoSpanner(wg, core.Options{Seed: seed, Shards: shards, Tracer: tr})
		return err
	}},
	{"mds", func(g *graph.Graph, seed int64, shards int, tr dist.Tracer) error {
		_, err := mds.Run(g, mds.Options{Seed: seed, Shards: shards, Tracer: tr})
		return err
	}},
}

func TestShardCountDigestInvariance(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"gnp48":    gen.ConnectedGNP(48, 0.15, 1),
		"clique12": gen.Clique(12),
		"grid6":    gen.Grid(6, 6),
	}
	for _, fam := range shardFamilies {
		for gname, g := range graphs {
			for seed := int64(1); seed <= 2; seed++ {
				t.Run(fmt.Sprintf("%s/%s/seed=%d", fam.name, gname, seed), func(t *testing.T) {
					rec := NewRecorder(g.N())
					if err := fam.run(g, seed, 0, rec); err != nil {
						t.Fatalf("reference run: %v", err)
					}
					if rec.EventCount() == 0 {
						t.Fatal("reference run recorded no events")
					}
					ref := rec.Digest()
					for _, shards := range shardCounts {
						rec := NewRecorder(g.N())
						if err := fam.run(g, seed, shards, rec); err != nil {
							t.Fatalf("shards=%d: %v", shards, err)
						}
						d := rec.Digest()
						if d.Equal(ref) {
							continue
						}
						t.Errorf("shards=%d digest %s diverged from unsharded digest %s",
							shards, d.Run, ref.Run)
						for v := range d.Vertex {
							if d.Vertex[v] != ref.Vertex[v] {
								t.Errorf("  first diverging vertex: %d", v)
								break
							}
						}
					}
				})
			}
		}
	}
}
