package trace

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"distspanner/internal/dist"
	"distspanner/internal/distrun"
	"distspanner/internal/gen"
	"distspanner/internal/graph"
)

// Sharding analogue of the engine-vs-reference test: a run must be
// invariant under the shard count. Each distrun family, run distributed
// across 1, 2, 4, 5, or 7 shard workers (Coordinate and ServeShard over
// the in-process channel transport), must reproduce its in-process run —
// per-vertex outputs, Stats and per-vertex digests. Partitioning is an
// execution detail, not an algorithm input. crossmode_test.go ties each
// family's distrun program to its public entry point, so this covers the
// algorithms the scenario registry runs.

var shardCounts = []int{1, 2, 4, 5, 7}

// runSharded runs family f on (g, seed) across shards in-process channel
// workers, each serving the distrun programs, with tr installed.
func runSharded(f distrun.Family, g *graph.Graph, seed int64, shards int, tr dist.Tracer) (*dist.CoordResult, error) {
	ct, wts := dist.NewChanCluster(shards)
	var wg sync.WaitGroup
	for _, wt := range wts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			dist.ServeShard(wt, distrun.Resolver())
		}()
	}
	cfg := f.CoordConfig(g, seed)
	cfg.Tracer = tr
	res, err := dist.Coordinate(ct, cfg)
	ct.Close()
	wg.Wait()
	return res, err
}

func TestShardCountDigestInvariance(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"gnp48":    gen.ConnectedGNP(48, 0.15, 1),
		"clique12": gen.Clique(12),
		"grid6":    gen.Grid(6, 6),
	}
	for _, name := range distrun.Names() {
		f, _ := distrun.Get(name)
		for gname, g := range graphs {
			for seed := int64(1); seed <= 2; seed++ {
				t.Run(fmt.Sprintf("%s/%s/seed=%d", name, gname, seed), func(t *testing.T) {
					rec := NewRecorder(g.N())
					outs, stats, err := f.RunLocal(g, seed, rec)
					if err != nil {
						t.Fatalf("in-process run: %v", err)
					}
					if rec.EventCount() == 0 {
						t.Fatal("in-process run recorded no events")
					}
					ref := rec.Digest()
					for _, shards := range shardCounts {
						rec := NewRecorder(g.N())
						res, err := runSharded(f, g, seed, shards, rec)
						if err != nil {
							t.Fatalf("shards=%d: %v", shards, err)
						}
						if res.Stats != *stats {
							t.Errorf("shards=%d stats diverged:\nin-process: %+v\nsharded:    %+v", shards, *stats, res.Stats)
						}
						if !reflect.DeepEqual(res.Outputs, outs) {
							t.Errorf("shards=%d outputs diverged from the in-process run", shards)
						}
						d := rec.Digest()
						if d.Equal(ref) {
							continue
						}
						t.Errorf("shards=%d digest %s diverged from in-process digest %s",
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
