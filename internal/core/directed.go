package core

import (
	"sort"

	"distspanner/internal/dist"
	"distspanner/internal/graph"
)

// The directed protocol (Theorem 4.9, Section 4.3.1) is the shared
// iteration of spannerNode with three changes, all behind the protocol
// seam: the densest star comes from the undirected reduction of Claims
// 4.10/4.11 with threshold ρ/8 (dirView), the announced density is the
// footnote-7 running minimum (dirEdges.view), and coverage is
// directional. Communication runs over the underlying undirected graph
// (the paper's model is bidirectional even for directed spanner
// problems), so directionality is data, not topology. A vertex's owned
// edges are its out-edges (me, w): it announces their coverage and casts
// their votes. Out-lists alone suffice for coverage checks, since every
// directed 2-path u -> x -> w consists of out-edges of u and x.

// Packed directed-star entries: a neighbor id with the directions taken —
// bit 1 set means (nbr -> candidate) is in the star, bit 0 set means
// (candidate -> nbr) is.
const (
	dirIn  = 2
	dirOut = 1
)

func packDirEntry(nbr int, in, out bool) int {
	e := nbr << 2
	if in {
		e |= dirIn
	}
	if out {
		e |= dirOut
	}
	return e
}

// dirStarMsg announces a candidate's directed star (packed entries) and
// random rank (phase D; r >= 1), or — with r == acceptRank — that the
// star was accepted into the spanner (phase F). Each entry is an id plus
// two direction bits.
type dirStarMsg struct {
	entries []int // packed ids: nbr<<2 | in<<1 | out
	r       int64
	n       int
}

//spanlint:bits r — the 4*IDBits(n) term is the rank r ∈ {1..n⁴}, four id-sized words
func (m dirStarMsg) Bits() int {
	return (1+len(m.entries))*(dist.IDBits(m.n)+2) + 4*dist.IDBits(m.n)
}
func (m dirStarMsg) rec() dist.Rec { return dist.Rec{Tag: tagDirStar, A: m.r, Ints: m.entries} }

// DirectedTwoSpanner runs the directed 2-spanner algorithm of Theorem 4.9
// on the digraph d. The communication topology is d's underlying undirected
// graph.
func DirectedTwoSpanner(d *graph.Digraph, opts Options) (*Result, error) {
	return directedRun(d, opts).execute(dist.Config{})
}

func directedRun(d *graph.Digraph, opts Options) *run {
	under, _ := d.Underlying()
	return newRun(under, d.M(), d.TotalWeight, opts, func(nd *spannerNode) { bindDirected(nd, d) })
}

// dirEdges is a vertex's directed-only state: which directed edges exist
// per neighbor position, the incoming edges' coverage and spanner
// membership, and the footnote-7 running minimum. The owned out-edges
// live in the shared node.
type dirEdges struct {
	hasOut []bool // per position: directed edge (me, nbr) exists
	hasIn  []bool // per position: directed edge (nbr, me) exists
	inIdx  []int  // its edge index
	covIn  []bool
	spanIn []bool
	runMin float64 // footnote 7: running minimum of the approximate density
}

// bindDirected sets up a vertex's directed edges. Positions without an
// out-edge own nothing, so they start covered.
func bindDirected(nd *spannerNode, d *graph.Digraph) {
	deg := len(nd.nbrs)
	de := &dirEdges{
		hasOut: make([]bool, deg),
		hasIn:  make([]bool, deg),
		inIdx:  make([]int, deg),
		covIn:  make([]bool, deg),
		spanIn: make([]bool, deg),
		runMin: -1,
	}
	nd.p = de
	nd.myWmax = 1 // unweighted: every announcement carries weight 1
	for i, u := range nd.nbrs {
		if idx, ok := d.EdgeIndex(nd.me, u); ok {
			de.hasOut[i] = true
			nd.edgeIdx[i] = idx
		} else {
			nd.covered[i] = true
		}
		if idx, ok := d.EdgeIndex(u, nd.me); ok {
			de.hasIn[i] = true
			de.inIdx[i] = idx
		}
	}
}

var directedTags = tagSet{span: tagDirSpan, uncov: tagDirUncov, star: tagDirStar, term: tagDirTerm, accept: tagDirStar}

func (de *dirEdges) tags() *tagSet                   { return &directedTags }
func (de *dirEdges) candidateOK(raw float64) bool    { return raw >= 1 }
func (de *dirEdges) terminal(maxRaw, _ float64) bool { return maxRaw <= 1 }

// view assembles the directed view from the accumulated uncovered
// out-head sets and announces the footnote-7 running minimum of its
// approximate densest-star density: the approximation may fluctuate
// upward, and the running minimum keeps the rounded value from
// increasing. The density is not an exact rational (num = den = 0).
func (de *dirEdges) view(nd *spannerNode) (starView, float64, int, int) {
	cnt := make(map[int]int, len(nd.nbrs))
	var hDir [][2]int
	for i, u := range nd.nbrs {
		cnt[u] = b2i(de.hasOut[i]) + b2i(de.hasIn[i])
		if !de.hasIn[i] {
			continue // star cannot use (u, me): no such edge
		}
		for _, w := range nd.uncovOf[i] {
			if w == nd.me {
				continue
			}
			if p, ok := idxOf(nd.nbrs, w); ok && de.hasOut[p] {
				hDir = append(hDir, [2]int{u, w})
			}
		}
	}
	dv := newDirView(cnt, hDir)
	if _, raw := dv.densestStar(nil); de.runMin < 0 || raw < de.runMin {
		de.runMin = raw
	}
	return dv, de.runMin, 0, 0
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// encodeStar packs each star neighbor with the directed edges the star
// takes to it: every existing one (Claim 4.10's conversion back).
func (de *dirEdges) encodeStar(nd *spannerNode, ids []int) []int {
	entries := make([]int, 0, len(ids))
	for _, u := range ids {
		i := posOf(nd.nbrs, u)
		entries = append(entries, packDirEntry(u, de.hasIn[i], de.hasOut[i]))
	}
	return entries
}

// spans: the candidate v 2-spans (me, w) iff (me, v) and (v, w) are in
// S_v — its star has an In entry for me and an Out entry for w. Entries
// are sorted by neighbor id.
func (de *dirEdges) spans(star []int, me, w int) bool {
	return dirEntry(star, me)&dirIn != 0 && dirEntry(star, w)&dirOut != 0
}

// dirEntry returns the direction bits of id's entry in the sorted packed
// star, 0 when id is not in it.
func dirEntry(star []int, id int) int {
	i := sort.SearchInts(star, id<<2)
	if i < len(star) && star[i]>>2 == id {
		return star[i] & (dirIn | dirOut)
	}
	return 0
}

func (de *dirEdges) starRec(star []int, r int64, n int) (dist.Rec, int) {
	m := dirStarMsg{entries: star, r: r, n: n}
	return m.rec(), m.Bits()
}

// acceptRec reuses the star encoding at rank acceptRank.
func (de *dirEdges) acceptRec(star []int, n int) (dist.Rec, int) {
	return de.starRec(star, acceptRank, n)
}

// owns: every out-edge votes from its tail.
func (de *dirEdges) owns(*spannerNode, int) bool { return true }

func (de *dirEdges) acceptOwn(nd *spannerNode) {
	for _, e := range nd.myStar {
		i := posOf(nd.nbrs, e>>2)
		if e&dirOut != 0 {
			nd.setInSpan(i)
		}
		if e&dirIn != 0 {
			de.spanIn[i] = true
		}
	}
}

func (de *dirEdges) accepted(nd *spannerNode, j int, star []int) {
	e := dirEntry(star, nd.me)
	if e&dirOut != 0 { // (sender, me) in spanner
		de.spanIn[j] = true
	}
	if e&dirIn != 0 { // (me, sender) in spanner
		nd.setInSpan(j)
	}
}

// addRemaining adds every uncovered incident directed edge, returning
// them as flattened (tail, head) pairs.
func (de *dirEdges) addRemaining(nd *spannerNode) []int {
	var added []int
	for i, u := range nd.nbrs {
		if !nd.covered[i] {
			nd.inSpan[i] = true
			nd.covered[i] = true
			added = append(added, nd.me, u)
		}
		if de.hasIn[i] && !de.covIn[i] {
			de.spanIn[i] = true
			de.covIn[i] = true
			added = append(added, u, nd.me)
		}
	}
	return added
}

// deathAdds records the terminated neighbor's direct-added edges that
// touch this vertex; pairs is the flattened (tail, head) list.
func (de *dirEdges) deathAdds(nd *spannerNode, _ int, pairs []int) {
	for k := 0; k+1 < len(pairs); k += 2 {
		tail, head := pairs[k], pairs[k+1]
		if tail == nd.me {
			p := posOf(nd.nbrs, head)
			nd.setInSpan(p)
			nd.covered[p] = true
		}
		if head == nd.me {
			p := posOf(nd.nbrs, tail)
			de.spanIn[p] = true
			de.covIn[p] = true
		}
	}
}

// cover marks an incoming edge (u, me) covered when it is in the spanner
// or bridged by (u, x) ∈ spanner (from u's out-list) and (x, me) ∈
// spanner (own incoming spanner state).
func (de *dirEdges) cover(nd *spannerNode) {
	for i := range nd.nbrs {
		if !de.hasIn[i] || de.covIn[i] {
			continue
		}
		if de.spanIn[i] {
			de.covIn[i] = true
			continue
		}
		for _, x := range nd.spanOf[i] {
			if x == nd.me {
				continue
			}
			if p, ok := idxOf(nd.nbrs, x); ok && de.spanIn[p] {
				de.covIn[i] = true
				break
			}
		}
	}
}

func (de *dirEdges) output(nd *spannerNode, out []int) []int {
	for i := range nd.nbrs {
		if de.spanIn[i] {
			out = append(out, de.inIdx[i])
		}
	}
	return out
}
