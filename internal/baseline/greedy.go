package baseline

import (
	"sort"

	"distspanner/internal/graph"
)

// GreedyKSpanner is the classic sequential greedy spanner (Althöfer et
// al.): scan the edges (by weight for weighted graphs, by index
// otherwise) and keep an edge iff the spanner built so far does not
// already connect its endpoints within stretch k. The result is a
// k-spanner whose girth exceeds k+1, which for odd k = 2t-1 bounds its
// size by O(n^{1+1/t}) — the worst-case-sparsity counterpoint to the
// paper's per-instance approximation objective.
func GreedyKSpanner(g *graph.Graph, k int) *graph.EdgeSet {
	if k < 1 {
		panic("baseline: stretch must be >= 1")
	}
	order := make([]int, g.M())
	for i := range order {
		order[i] = i
	}
	if g.Weighted() {
		sort.SliceStable(order, func(a, b int) bool {
			return g.Weight(order[a]) < g.Weight(order[b])
		})
	}
	var ws graph.Search
	h := graph.NewEdgeSet(g.M())
	for _, i := range order {
		e := g.Edge(i)
		if ws.Dist(g, e.U, e.V, h, k) < 0 {
			h.Add(i)
		}
	}
	return h
}

// GirthAbove reports whether every cycle in the subgraph H has length
// greater than limit, by checking, for each edge of H, that removing it
// leaves the endpoints at distance >= limit. Used to validate the greedy
// spanner's structural guarantee.
func GirthAbove(g *graph.Graph, h *graph.EdgeSet, limit int) bool {
	var ws graph.Search
	rest := h.Clone()
	ok := true
	h.ForEach(func(i int) {
		if !ok {
			return
		}
		e := g.Edge(i)
		rest.Remove(i)
		if d := ws.Dist(g, e.U, e.V, rest, limit-1); d >= 0 && d+1 <= limit {
			ok = false
		}
		rest.Add(i)
	})
	return ok
}
