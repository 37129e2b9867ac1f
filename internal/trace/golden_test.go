package trace

import (
	"testing"

	"distspanner/internal/gen"
)

// Golden run digests for a fixed (graph, seed) per algorithm family.
// These pin the logical transcript itself — message contents, order,
// and vertex lifecycle — not just engine-vs-reference agreement: an
// engine or algorithm change that alters the transcript (even one the
// reference interpreter agrees with) must show up here and be
// consciously re-golded.
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

func TestGoldenDigests(t *testing.T) {
	g := gen.ConnectedGNP(32, 0.2, 1)
	const seed = 1
	for _, fam := range algoFamilies {
		t.Run(fam.name, func(t *testing.T) {
			rec := NewRecorder(g.N())
			if err := fam.run(g, seed, rec); err != nil {
				t.Fatal(err)
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
