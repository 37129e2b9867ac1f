package trace

import (
	"testing"

	"distspanner/internal/gen"
)

// Golden run digests for a fixed (graph, seed) per algorithm family.
// These pin the logical transcript itself — message order, tags, metered
// sizes, and vertex lifecycle — not just engine-vs-reference agreement:
// an engine or algorithm change that alters the transcript (even one the
// reference interpreter agrees with) must show up here and be
// consciously re-golded. The digest does not fold record contents, so
// goldenOutputs pins what each run computed alongside it.
// Regenerate by running the test: the failure output prints the
// observed values to paste in.
var goldenDigests = map[string]string{
	"twospanner": "11fcb251292f7b19",
	"congest":    "ca5c42e5d213250d",
	"directed":   "abd24ebf829de00d",
	"cs":         "97a13eeb96572506",
	"weighted":   "d09b61af9888478b",
	"mds":        "ea285d0489bf314a",
}

// Golden outputs for the same runs: for the 2-spanner families an FNV-1a
// hash of the sorted spanner edge indices with Cost, Iterations and
// Fallbacks (spannerPrint), for mds a hash of the dominating set.
var goldenOutputs = map[string]string{
	"twospanner": "edges=eabe162839151c60 cost=114 iters=1 fallbacks=0",
	"congest":    "edges=eabe162839151c60 cost=114 iters=1 fallbacks=0",
	"directed":   "edges=1559b6d88bf9d044 cost=154 iters=0 fallbacks=0",
	"cs":         "edges=d7fcfa81cb771206 cost=98 iters=2 fallbacks=0",
	"weighted":   "edges=5f874b22b8adaba2 cost=459.62732278216254 iters=3 fallbacks=0",
	"mds":        "set=a83e6577ef9d1547",
}

func TestGoldenDigests(t *testing.T) {
	g := gen.ConnectedGNP(32, 0.2, 1)
	const seed = 1
	for _, fam := range algoFamilies {
		t.Run(fam.name, func(t *testing.T) {
			rec := NewRecorder(g.N())
			out, err := fam.run(g, seed, rec)
			if err != nil {
				t.Fatal(err)
			}
			if want := goldenOutputs[fam.name]; out != want {
				t.Errorf("output = %q, golden = %q — the run's output changed; re-gold only if intentional", out, want)
			}
			got := rec.Digest().Run
			want, ok := goldenDigests[fam.name]
			if !ok {
				t.Fatalf("no golden digest for family %q; observed %q", fam.name, got)
			}
			if got != want {
				t.Errorf("digest = %q, golden = %q — the logical transcript changed; re-gold only if intentional", got, want)
			}
		})
	}
}
