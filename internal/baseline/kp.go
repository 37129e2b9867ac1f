// Package baseline implements the comparison algorithms the paper measures
// itself against in prose: the sequential greedy 2-spanner of Kortsarz and
// Peleg [46] (the O(log(m/n)) benchmark the distributed algorithm matches),
// the Baswana-Sen (2k-1)-spanner construction [7, 28] (whose O(n^{1+1/k})
// size yields the O(n^{1/k})-approximation for undirected k-spanners in
// CONGEST), the classic greedy dominating set, the trivial
// whole-graph n-approximation, and an expectation-only randomized star
// selector in the spirit of Jia et al. [43] for contrasting guaranteed
// versus in-expectation ratios.
package baseline

import (
	"sort"

	"distspanner/internal/flow"
	"distspanner/internal/graph"
	"distspanner/internal/span"
)

// KortsarzPeleg runs the sequential greedy 2-spanner algorithm [46]:
// repeatedly add the globally densest star with respect to the uncovered
// edges while its density exceeds 1, then take the remaining uncovered
// edges directly. Approximation ratio O(log(m/n)); weighted graphs get the
// weighted-density variant (density per unit star weight, zero-weight edges
// taken up front).
func KortsarzPeleg(g *graph.Graph) *graph.EdgeSet {
	m := g.M()
	H := graph.NewEdgeSet(m)
	covered := graph.NewEdgeSet(m)
	// Weighted pre-pass: zero-weight edges are free.
	if g.Weighted() {
		for i := 0; i < m; i++ {
			if g.Weight(i) == 0 {
				H.Add(i)
			}
		}
	}
	span.AddCovered(g, H, covered, 2)

	density := make([]float64, g.N())
	stars := make([][]int, g.N())
	spans := make([]float64, g.N())
	dirty := make([]bool, g.N())
	for v := range dirty {
		dirty[v] = true
	}
	for {
		best, bestD := -1, 0.0
		for v := 0; v < g.N(); v++ {
			if dirty[v] {
				stars[v], spans[v], density[v] = densestStarOf(g, covered, v)
				dirty[v] = false
			}
			if density[v] > bestD {
				best, bestD = v, density[v]
			}
		}
		if best < 0 || bestD <= 1 {
			break
		}
		for _, u := range stars[best] {
			idx, _ := g.EdgeIndex(best, u)
			H.Add(idx)
		}
		newlyCovered := span.AddCovered(g, H, covered, 2)
		markDirty(g, dirty, newlyCovered)
	}
	// Remaining uncovered edges are taken directly.
	for i := 0; i < m; i++ {
		if !covered.Has(i) {
			H.Add(i)
		}
	}
	return H
}

// densestStarOf computes the densest v-star against uncovered edges between
// v's neighbors: edges 2-spanned per unit star cost. Zero-weight star edges
// are free and always included.
func densestStarOf(g *graph.Graph, covered *graph.EdgeSet, v int) (star []int, spanned, density float64) {
	var items []int
	var free []int
	costOf := make(map[int]float64)
	for _, arc := range g.Adj(v) {
		w := g.Weight(arc.Edge)
		if w == 0 {
			free = append(free, arc.To)
		} else {
			items = append(items, arc.To)
			costOf[arc.To] = w
		}
	}
	sort.Ints(items)
	if len(items) == 0 {
		return free, 0, 0
	}
	idx := make(map[int]int, len(items))
	in := &flow.DensestInstance{
		NumItems: len(items),
		Cost:     make([]float64, len(items)),
		Bonus:    make([]float64, len(items)),
	}
	for i, u := range items {
		idx[u] = i
		in.Cost[i] = costOf[u]
	}
	freeSet := make(map[int]bool, len(free))
	for _, u := range free {
		freeSet[u] = true
	}
	// Uncovered edges between neighbors: pairs between selectable items,
	// bonuses for selectable-free pairs.
	for _, arc := range g.Adj(v) {
		u := arc.To
		for _, arc2 := range g.Adj(u) {
			w := arc2.To
			if w <= u || w == v || covered.Has(arc2.Edge) {
				continue
			}
			ui, uOK := idx[u]
			wi, wOK := idx[w]
			if !g.HasEdge(v, w) {
				continue
			}
			switch {
			case uOK && wOK:
				in.Pairs = append(in.Pairs, [2]int{ui, wi})
			case uOK && freeSet[w]:
				in.Bonus[ui]++
			case wOK && freeSet[u]:
				in.Bonus[wi]++
			}
		}
	}
	sel, d, err := flow.Densest(in)
	if err != nil {
		panic("baseline: densest star failed: " + err.Error())
	}
	star = append(star, free...)
	for i, s := range sel {
		if s {
			star = append(star, items[i])
		}
	}
	// Spanned count: pairs inside the selection plus bonuses.
	prof, _ := in.Value(sel)
	return star, prof, d
}

// markDirty invalidates cached densities of every vertex whose
// 2-neighborhood saw a coverage change.
func markDirty(g *graph.Graph, dirty []bool, newlyCovered []int) {
	for _, i := range newlyCovered {
		e := g.Edge(i)
		for _, v := range []int{e.U, e.V} {
			dirty[v] = true
			for _, arc := range g.Adj(v) {
				dirty[arc.To] = true
			}
		}
	}
}

// TrivialSpanner returns the whole edge set: the communication-free
// n-approximation the paper contrasts its lower bounds with (any k-spanner
// of a connected graph has at least n-1 edges, the graph has at most
// n(n-1)/2 < n · (n-1)).
func TrivialSpanner(g *graph.Graph) *graph.EdgeSet {
	return graph.Full(g.M())
}

// GreedyMDS is the classic sequential greedy dominating set: repeatedly
// take the vertex dominating the most not-yet-dominated vertices. Ratio
// ln Δ + 1.
func GreedyMDS(g *graph.Graph) []int {
	n := g.N()
	dominated := make([]bool, n)
	remaining := n
	var ds []int
	for remaining > 0 {
		best, bestGain := -1, 0
		for v := 0; v < n; v++ {
			gain := 0
			if !dominated[v] {
				gain++
			}
			for _, arc := range g.Adj(v) {
				if !dominated[arc.To] {
					gain++
				}
			}
			if gain > bestGain {
				best, bestGain = v, gain
			}
		}
		if best < 0 {
			break
		}
		ds = append(ds, best)
		if !dominated[best] {
			dominated[best] = true
			remaining--
		}
		for _, arc := range g.Adj(best) {
			if !dominated[arc.To] {
				dominated[arc.To] = true
				remaining--
			}
		}
	}
	sort.Ints(ds)
	return ds
}
