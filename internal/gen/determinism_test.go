package gen

import (
	"fmt"
	"hash/fnv"
	"testing"

	"distspanner/internal/graph"
)

// edgeHash fingerprints a graph's exact edge list in insertion order —
// the identity the scenario layer's canonical graph hash, sweep seeds,
// and trace digests all assume is a pure function of (family, params,
// seed).
func edgeHash(g *graph.Graph) uint64 {
	h := fnv.New64a()
	for i := 0; i < g.M(); i++ {
		fmt.Fprintf(h, "%v,", g.Edge(i))
	}
	return h.Sum64()
}

// TestPreferentialAttachmentDeterminism pins the fix for a real
// nondeterminism bug spanlint's detmap analyzer caught: the attachment
// loop ranged over the per-vertex target set map, so edge-insertion order
// — and, through the endpoint pool, every later degree-biased draw —
// depended on map iteration order. Identical (n, m, seed) produced
// structurally different graphs within one process. Repeated generation
// must now agree exactly.
func TestPreferentialAttachmentDeterminism(t *testing.T) {
	want := edgeHash(PreferentialAttachment(200, 3, 42))
	for i := 0; i < 10; i++ {
		if got := edgeHash(PreferentialAttachment(200, 3, 42)); got != want {
			t.Fatalf("iteration %d: edge hash %x, want %x — generator output depends on map iteration order", i, got, want)
		}
	}
}

// TestGeneratorGoldens pins ConnectedGNP's exact edge list — order and
// indices included — at the sizes the workloads use. Goldens, EXPERIMENTS.md,
// sweep seeds and service cache keys all hash cgnp graphs, so any change to
// the generator's random draws must show up here first.
func TestGeneratorGoldens(t *testing.T) {
	cases := []struct {
		n    int
		p    float64
		seed int64
		want uint64
	}{
		{10000, 0.0008, 1, 0x7125f8a47f043ef8},
		{3000, 0.01, 1, 0xdd7801b025a50fe1},
		{500, 0.3, 1, 0xfe3a0385f37e7ba7},
		{64, 0.9, 1, 0x927382405da51713},
		{48, 0.15, 1, 0x0fd8aa9ce41e8071}, // the transportconf gnp48 graph
		{2, 0.5, 1, 0xfe7f444df88d1398},
		{1, 0.5, 1, 0xcbf29ce484222325},
	}
	for _, c := range cases {
		if got := edgeHash(ConnectedGNP(c.n, c.p, c.seed)); got != c.want {
			t.Errorf("ConnectedGNP(%d, %v, %d): edge hash %#x, want %#x", c.n, c.p, c.seed, got, c.want)
		}
	}
}
