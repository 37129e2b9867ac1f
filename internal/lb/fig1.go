// Package lb builds the paper's lower-bound machinery (Sections 2 and 3):
// the graph families G(ℓ,β) (Figure 1), G_w (Figure 2), and the MVC gadget
// G_S (Figure 3); set-disjointness and gap-disjointness input generators;
// the predicted lower-bound curves of Theorems 1.1, 2.8, 2.9, 2.10 and
// 3.3–3.5; and the two-party simulation harness that partitions a CONGEST
// execution into Alice's and Bob's vertices and meters the bits crossing
// the cut — the executable content of the reduction arguments.
package lb

import (
	"fmt"

	"distspanner/internal/graph"
)

// Fig1 is the directed graph G(ℓ,β) of Figure 1. Vertices:
//
//	X1 = {x¹_i, x²_i},  Y1 = {y¹_i, y²_i},  Y3 = {y³_i}   for i ∈ [ℓ]
//	X2 = {x_ij},        Y2 = {y_ij}                        for i ∈ [ℓ], j ∈ [β]
//
// Fixed edges: the matching (x¹_i→y¹_i), (x²_i→y²_i); the dense complete
// bipartite D = X2×Y2; (x_ij→x¹_i); (y³_i→y_ij); (y²_i→y³_i). Input-
// dependent edges: (x¹_i→x²_j) iff a_ij = 0 (Alice), (y¹_i→y²_j) iff
// b_ij = 0 (Bob). The construction's point (Claim 2.2): the D-edge
// (x_ij→y_rs) has a 5-hop bypass iff a_ir = 0 or b_ir = 0; when
// a_ir = b_ir = 1 the direct edge is the ONLY x_ij→y_rs path, so all β²
// such D-edges are forced into every k-spanner.
type Fig1 struct {
	L, Beta int
	A, B    []bool // input strings, length ℓ²; true = 1
	G       *graph.Digraph
	// D is the edge set of the dense component X2×Y2.
	D *graph.EdgeSet
}

// Vertex id layout helpers.

// X1a returns the id of x¹_i.
func (f *Fig1) X1a(i int) int { return i }

// X1b returns the id of x²_i.
func (f *Fig1) X1b(i int) int { return f.L + i }

// Y1a returns the id of y¹_i.
func (f *Fig1) Y1a(i int) int { return 2*f.L + i }

// Y1b returns the id of y²_i.
func (f *Fig1) Y1b(i int) int { return 3*f.L + i }

// Y3 returns the id of y³_i.
func (f *Fig1) Y3(i int) int { return 4*f.L + i }

// X2 returns the id of x_ij.
func (f *Fig1) X2(i, j int) int { return 5*f.L + i*f.Beta + j }

// Y2 returns the id of y_ij.
func (f *Fig1) Y2(i, j int) int { return 5*f.L + f.L*f.Beta + i*f.Beta + j }

// N returns the number of vertices, 2ℓβ + 5ℓ.
func (f *Fig1) N() int { return 2*f.L*f.Beta + 5*f.L }

// NewFig1 builds G(ℓ,β) for input strings a, b of length ℓ² (a[i*ℓ+r]
// is bit a_ir).
func NewFig1(l, beta int, a, b []bool) (*Fig1, error) {
	if l < 1 || beta < 1 {
		return nil, fmt.Errorf("lb: need ℓ, β >= 1, got %d, %d", l, beta)
	}
	if len(a) != l*l || len(b) != l*l {
		return nil, fmt.Errorf("lb: input strings must have length ℓ² = %d", l*l)
	}
	f := &Fig1{L: l, Beta: beta, A: append([]bool(nil), a...), B: append([]bool(nil), b...)}
	g := graph.NewDigraph(f.N())
	// Matching X1 -> Y1.
	for i := 0; i < l; i++ {
		g.AddEdge(f.X1a(i), f.Y1a(i))
		g.AddEdge(f.X1b(i), f.Y1b(i))
	}
	// Dense component D: X2 x Y2.
	var dIdx []int
	for i := 0; i < l; i++ {
		for j := 0; j < beta; j++ {
			for r := 0; r < l; r++ {
				for s := 0; s < beta; s++ {
					dIdx = append(dIdx, g.AddEdge(f.X2(i, j), f.Y2(r, s)))
				}
			}
		}
	}
	// X2 -> X1, Y3 -> Y2, Y1b -> Y3.
	for i := 0; i < l; i++ {
		for j := 0; j < beta; j++ {
			g.AddEdge(f.X2(i, j), f.X1a(i))
			g.AddEdge(f.Y3(i), f.Y2(i, j))
		}
		g.AddEdge(f.Y1b(i), f.Y3(i))
	}
	// Input-dependent edges.
	for i := 0; i < l; i++ {
		for r := 0; r < l; r++ {
			if !a[i*l+r] {
				g.AddEdge(f.X1a(i), f.X1b(r))
			}
			if !b[i*l+r] {
				g.AddEdge(f.Y1a(i), f.Y1b(r))
			}
		}
	}
	f.G = g
	f.D = graph.NewEdgeSet(g.M())
	for _, idx := range dIdx {
		f.D.Add(idx)
	}
	return f, nil
}

// ConflictPairs returns the (i, r) pairs with a_ir = b_ir = 1: the pairs
// whose β² D-edges are forced into every spanner.
func (f *Fig1) ConflictPairs() [][2]int {
	var out [][2]int
	for i := 0; i < f.L; i++ {
		for r := 0; r < f.L; r++ {
			if f.A[i*f.L+r] && f.B[i*f.L+r] {
				out = append(out, [2]int{i, r})
			}
		}
	}
	return out
}

// NonDSpanner returns the candidate spanner consisting of every edge
// outside D: by Lemma 2.3, a 5-spanner (hence k-spanner for k >= 5) when
// the inputs are disjoint.
func (f *Fig1) NonDSpanner() *graph.EdgeSet {
	h := graph.Full(f.G.M())
	h.SubtractWith(f.D)
	return h
}

// ForcedDEdges returns the D-edges that every k-spanner must contain:
// those (x_ij → y_rs) with no alternative directed path of any length.
// By Claim 2.2 these are exactly the β² edges of each conflict pair.
func (f *Fig1) ForcedDEdges() *graph.EdgeSet {
	forced := graph.NewEdgeSet(f.G.M())
	for _, pr := range f.ConflictPairs() {
		i, r := pr[0], pr[1]
		for j := 0; j < f.Beta; j++ {
			for s := 0; s < f.Beta; s++ {
				if idx, ok := f.G.EdgeIndex(f.X2(i, j), f.Y2(r, s)); ok {
					forced.Add(idx)
				}
			}
		}
	}
	return forced
}

// MinimalSpanner returns the structurally minimal k-spanner (k >= 5) per
// Lemma 2.3's argument: all non-D edges plus the forced D-edges of the
// conflict pairs.
func (f *Fig1) MinimalSpanner() *graph.EdgeSet {
	h := f.NonDSpanner()
	h.UnionWith(f.ForcedDEdges())
	return h
}

// VerifyClaim22 machine-checks Claim 2.2 on the instance: for every pair
// (i, r), a 5-hop D-free bypass from x_i0 to y_r0 exists iff a_ir = 0 or
// b_ir = 0, and for conflict pairs the direct D-edge is the only path (its
// removal disconnects the pair). One (j, s) representative per (i, r)
// suffices by the construction's symmetry in j and s.
func (f *Fig1) VerifyClaim22() error {
	nonD := f.NonDSpanner()
	full := graph.Full(f.G.M())
	var ws graph.Search
	for i := 0; i < f.L; i++ {
		for r := 0; r < f.L; r++ {
			src, dst := f.X2(i, 0), f.Y2(r, 0)
			bypass := ws.DirectedDist(f.G, src, dst, nonD, 5)
			open := !f.A[i*f.L+r] || !f.B[i*f.L+r]
			if open && bypass != 5 {
				return fmt.Errorf("lb: pair (%d,%d) open but D-free distance = %d, want 5", i, r, bypass)
			}
			if !open {
				if bypass != -1 {
					return fmt.Errorf("lb: conflict pair (%d,%d) has a D-free path", i, r)
				}
				// The direct edge must be the unique path of any length.
				idx, _ := f.G.EdgeIndex(src, dst)
				without := full.Clone()
				without.Remove(idx)
				if d := ws.DirectedDist(f.G, src, dst, without, -1); d != -1 {
					return fmt.Errorf("lb: conflict pair (%d,%d) reachable without its D-edge (dist %d)", i, r, d)
				}
			}
		}
	}
	return nil
}

// CutSide returns the two-party partition of Lemma 2.4: Bob simulates
// V_B = Y1 (true), Alice simulates everything else (false). The paper's
// accounting uses this cut of Θ(ℓ) edges.
func (f *Fig1) CutSide() []bool {
	side := make([]bool, f.N())
	for i := 0; i < f.L; i++ {
		side[f.Y1a(i)] = true
		side[f.Y1b(i)] = true
	}
	return side
}

// CutEdges counts the edges crossing the Alice/Bob cut; Θ(ℓ) by
// construction (2ℓ matching edges plus ℓ edges into Y3 plus input edges
// internal to... input edges (y¹→y²) stay inside Y1).
func (f *Fig1) CutEdges() int {
	side := f.CutSide()
	count := 0
	for i := 0; i < f.G.M(); i++ {
		e := f.G.Edge(i)
		if side[e.U] != side[e.V] {
			count++
		}
	}
	return count
}
