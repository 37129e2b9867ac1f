package graph

import (
	"math"
	"math/rand"
	"testing"
)

// refDistWithin is the map-based breadth-first search DistWithin ran
// before the Search workspace, kept as the reference the workspace must
// match distance for distance. adj is Graph.adj or Digraph.out.
func refDistWithin(adj [][]Arc, u, v int, H *EdgeSet, maxDepth int) int {
	if u == v {
		return 0
	}
	dist := map[int]int{u: 0}
	queue := []int{u}
	for len(queue) > 0 {
		x := queue[0]
		queue = queue[1:]
		if maxDepth >= 0 && dist[x] >= maxDepth {
			continue
		}
		for _, arc := range adj[x] {
			if !H.Has(arc.Edge) {
				continue
			}
			if _, seen := dist[arc.To]; seen {
				continue
			}
			if arc.To == v {
				return dist[x] + 1
			}
			dist[arc.To] = dist[x] + 1
			queue = append(queue, arc.To)
		}
	}
	return -1
}

// randomSubset returns a subset of [0, m) keeping each index with
// probability keep.
func randomSubset(rng *rand.Rand, m int, keep float64) *EdgeSet {
	h := NewEdgeSet(m)
	for i := 0; i < m; i++ {
		if rng.Float64() < keep {
			h.Add(i)
		}
	}
	return h
}

// TestSearchMatchesReference diffs the workspace against the map-based
// reference on random graphs and digraphs with random H, for every pair
// (u == v included) and every depth bound in {-1, 0, 1, 2, 3}. One
// workspace serves all graphs, whose sizes and subsets differ, so stale
// marks from an earlier search or a smaller graph would show up.
func TestSearchMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var ws Search
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(24)
		p := 0.05 + 0.4*rng.Float64()
		g, d := New(n), NewDigraph(n)
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				if u < v && rng.Float64() < p {
					g.AddEdge(u, v)
				}
				if u != v && rng.Float64() < p {
					d.AddEdge(u, v)
				}
			}
		}
		keep := rng.Float64()
		hg, hd := randomSubset(rng, g.M(), keep), randomSubset(rng, d.M(), keep)
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				for depth := -1; depth <= 3; depth++ {
					if got, want := ws.Dist(g, u, v, hg, depth), refDistWithin(g.adj, u, v, hg, depth); got != want {
						t.Fatalf("trial %d: Dist(%d, %d, depth %d) = %d, reference %d", trial, u, v, depth, got, want)
					}
					if got, want := g.DistWithin(u, v, hg, depth), refDistWithin(g.adj, u, v, hg, depth); got != want {
						t.Fatalf("trial %d: DistWithin(%d, %d, depth %d) = %d, reference %d", trial, u, v, depth, got, want)
					}
					if got, want := ws.DirectedDist(d, u, v, hd, depth), refDistWithin(d.out, u, v, hd, depth); got != want {
						t.Fatalf("trial %d: DirectedDist(%d, %d, depth %d) = %d, reference %d", trial, u, v, depth, got, want)
					}
					if got, want := d.DistWithin(u, v, hd, depth), refDistWithin(d.out, u, v, hd, depth); got != want {
						t.Fatalf("trial %d: Digraph.DistWithin(%d, %d, depth %d) = %d, reference %d", trial, u, v, depth, got, want)
					}
				}
			}
		}
	}
}

// TestSearchEpochWrap checks that a workspace whose epoch counter wraps
// does not mistake marks left by old searches for the current one.
func TestSearchEpochWrap(t *testing.T) {
	// Path 0-1-2-3 with every edge in H.
	g := New(4)
	for v := 0; v+1 < 4; v++ {
		g.AddEdge(v, v+1)
	}
	full := Full(g.M())
	var ws Search
	if d := ws.Dist(g, 0, 3, full, -1); d != 3 {
		t.Fatalf("Dist(0, 3) = %d, want 3", d)
	}
	// Every vertex now carries mark 1; after the wrap the epoch is 1 again.
	ws.epoch = math.MaxUint32
	if d := ws.Dist(g, 0, 3, full, -1); d != 3 {
		t.Fatalf("after epoch wrap: Dist(0, 3) = %d, want 3", d)
	}
}
