package graph

// Search is a reusable workspace for the bounded breadth-first searches
// behind DistWithin. A loop that measures one distance per edge holds one
// Search for the whole loop, so each search costs only the vertices it
// visits and allocates nothing once the workspace has grown. The zero
// value is ready to use; the workspace grows to the largest graph it has
// searched.
// A Search is not safe for concurrent use.
type Search struct {
	mark  []uint32 // mark[x] == epoch: x was reached by the current search
	queue []int
	epoch uint32
}

// Dist is DistWithin on this workspace: the hop distance from u to v in g
// using only edges in H, or -1 if v is farther than maxDepth or
// unreachable. A maxDepth < 0 means unbounded.
func (s *Search) Dist(g *Graph, u, v int, H *EdgeSet, maxDepth int) int {
	g.checkVertex(u)
	g.checkVertex(v)
	return s.within(g.adj, u, v, H, maxDepth)
}

// DirectedDist is Digraph.DistWithin on this workspace: the directed hop
// distance from u to v in g using only edges in H, with Dist's contract.
func (s *Search) DirectedDist(g *Digraph, u, v int, H *EdgeSet, maxDepth int) int {
	g.checkVertex(u)
	g.checkVertex(v)
	return s.within(g.out, u, v, H, maxDepth)
}

// within runs the search over the adjacency lists adj, level by level, so
// the queue itself tells each vertex's depth and no depth array is kept.
func (s *Search) within(adj [][]Arc, u, v int, H *EdgeSet, maxDepth int) int {
	if u == v {
		return 0
	}
	if len(s.mark) < len(adj) {
		s.mark = make([]uint32, len(adj))
		s.epoch = 0
	}
	s.epoch++
	if s.epoch == 0 { // wrapped: stale marks could equal the new epoch
		clear(s.mark)
		s.epoch = 1
	}
	epoch := s.epoch
	s.mark[u] = epoch
	q := append(s.queue[:0], u)
	for depth, head := 0, 0; head < len(q); depth++ {
		if maxDepth >= 0 && depth >= maxDepth {
			break
		}
		for end := len(q); head < end; head++ {
			for _, arc := range adj[q[head]] {
				if s.mark[arc.To] == epoch || !H.Has(arc.Edge) {
					continue
				}
				if arc.To == v {
					s.queue = q
					return depth + 1
				}
				s.mark[arc.To] = epoch
				q = append(q, arc.To)
			}
		}
	}
	s.queue = q
	return -1
}
