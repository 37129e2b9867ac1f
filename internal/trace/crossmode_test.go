package trace

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
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
// collapses each vertex's event sequence — kind, round, peer, tag and
// metered size of every send and delivery — plus the per-round activity,
// so any divergence in message order, sizes, lifecycle, or activity fails
// here. Record contents are not folded: a change that alters payload
// values without moving a size passes, which is why golden_test.go also
// pins each family's output.

// algoFamilies enumerates the dist-engine algorithm families the
// scenario registry exposes, each run the way its scenario runs it. The
// names are the distrun registry keys, whose programs derive the same
// auxiliary inputs (orientations, splits, weights) from (g, seed). run
// returns the run's output fingerprint (spannerPrint / mdsPrint).
var algoFamilies = []struct {
	name string
	run  func(g *graph.Graph, seed int64, tr dist.Tracer) (string, error)
}{
	{"twospanner", func(g *graph.Graph, seed int64, tr dist.Tracer) (string, error) {
		return spannerPrint(core.TwoSpanner(g, core.Options{Seed: seed, Tracer: tr}))
	}},
	{"congest", func(g *graph.Graph, seed int64, tr dist.Tracer) (string, error) {
		res, err := core.TwoSpannerCongest(g, core.Options{Seed: seed, Tracer: tr})
		if err != nil {
			return "", err
		}
		return spannerPrint(&res.Result, nil)
	}},
	{"directed", func(g *graph.Graph, seed int64, tr dist.Tracer) (string, error) {
		d := gen.OrientRandomly(g, 0.3, seed)
		return spannerPrint(core.DirectedTwoSpanner(d, core.Options{Seed: seed, Tracer: tr}))
	}},
	{"cs", func(g *graph.Graph, seed int64, tr dist.Tracer) (string, error) {
		clients, servers := gen.ClientServerSplit(g, 0.5, 0.8, seed)
		return spannerPrint(core.ClientServerTwoSpanner(g, clients, servers, core.Options{Seed: seed, Tracer: tr}))
	}},
	{"weighted", func(g *graph.Graph, seed int64, tr dist.Tracer) (string, error) {
		wg := g.Clone()
		gen.RandomWeights(wg, 1, 8, seed)
		return spannerPrint(core.TwoSpanner(wg, core.Options{Seed: seed, Tracer: tr}))
	}},
	{"mds", func(g *graph.Graph, seed int64, tr dist.Tracer) (string, error) {
		res, err := mds.Run(g, mds.Options{Seed: seed, Tracer: tr})
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("set=%s", intsHash(res.DominatingSet)), nil
	}},
}

// spannerPrint fingerprints a 2-spanner result: an FNV-1a hash of its
// sorted edge indices plus Cost, Iterations and Fallbacks.
func spannerPrint(res *core.Result, err error) (string, error) {
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("edges=%s cost=%g iters=%d fallbacks=%d",
		intsHash(res.Spanner.Slice()), res.Cost, res.Iterations, res.Fallbacks), nil
}

// intsHash is the FNV-1a 64-bit hash of xs, each value as 8 little-endian
// bytes, in hex.
func intsHash(xs []int) string {
	h := fnv.New64a()
	var b [8]byte
	for _, x := range xs {
		binary.LittleEndian.PutUint64(b[:], uint64(x))
		h.Write(b[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
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
					if _, err := fam.run(g, seed, eng); err != nil {
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
