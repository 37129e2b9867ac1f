package core

import "sort"

// dirView is the directed analogue of localView (Section 4.3.1). The
// densest directed star is approximated by the undirected reduction of
// Claims 4.10/4.11: ignore directions of the 2-spannable uncovered edges,
// compute the densest undirected star with unit costs, then convert back by
// taking every existing directed edge between the center and the selected
// neighbors. Densities used for thresholds are the true directed densities
// of the converted stars, and the Section 4.1 extension rule runs with
// threshold ρ/8 instead of ρ/4 (the paper's adjustment for working with a
// 2-approximation). Only the valuation and the oracle differ from
// localView; the star-choice rule is the shared chooseStar.
type dirView struct {
	*localView
	dirCnt []float64      // directed star edges (1 or 2) per position
	mult   map[[2]int]int // directed multiplicity per unordered position pair
}

// newDirView builds the view. nbrs maps neighbor id to the number of
// directed edges between the center and that neighbor (1 or 2). hDir lists
// the uncovered 2-spannable directed edges (u, w) between neighbors.
func newDirView(nbrs map[int]int, hDir [][2]int) *dirView {
	selectable := make(map[int]float64, len(nbrs))
	for id := range nbrs {
		selectable[id] = 1
	}
	// Collapse directed edges to unordered pairs with multiplicities.
	multByIDs := make(map[[2]int]int)
	for _, e := range hDir {
		a, b := e[0], e[1]
		if a > b {
			a, b = b, a
		}
		multByIDs[[2]int{a, b}]++
	}
	pairs := make([][2]int, 0, len(multByIDs))
	for p := range multByIDs {
		pairs = append(pairs, p)
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i][0] != pairs[j][0] {
			return pairs[i][0] < pairs[j][0]
		}
		return pairs[i][1] < pairs[j][1]
	})
	uv := newLocalView(selectable, nil, pairs)
	dv := &dirView{localView: uv, dirCnt: make([]float64, len(uv.nbrs)), mult: make(map[[2]int]int, len(multByIDs))}
	//spanlint:ordered pos is a bijection over ids, so distinct iterations write distinct dirCnt slots
	for id, cnt := range nbrs {
		dv.dirCnt[uv.pos[id]] = float64(cnt)
	}
	//spanlint:ordered distinct id pairs map through the pos bijection to distinct normalized position pairs
	for p, m := range multByIDs {
		dv.mult[posPair(uv.pos[p[0]], uv.pos[p[1]])] = m
	}
	return dv
}

func posPair(a, b int) [2]int {
	if a > b {
		a, b = b, a
	}
	return [2]int{a, b}
}

// starValue returns the directed 2-spanned count and directed star size
// of the selection.
func (dv *dirView) starValue(sel []bool) (spanned, size float64) {
	for p, in := range sel {
		if !in {
			continue
		}
		size += dv.dirCnt[p]
		for _, q := range dv.hAdj[p] {
			if q > p && sel[q] {
				spanned += float64(dv.mult[[2]int{p, q}])
			}
		}
	}
	return spanned, size
}

// gain is the directed count and size position p adds to sel.
func (dv *dirView) gain(sel []bool, p int) (spanned, size float64) {
	for _, q := range dv.hAdj[p] {
		if sel[q] {
			spanned += float64(dv.mult[posPair(p, q)])
		}
	}
	return spanned, dv.dirCnt[p]
}

// densestStar returns the undirected-densest star and its directed
// density, a 2-approximation of the densest directed star (Claim 4.10).
func (dv *dirView) densestStar(allowed []bool) ([]bool, float64) {
	sel, _ := dv.localView.densestStar(allowed)
	if sel == nil {
		return nil, 0
	}
	return sel, density(dv, sel)
}

// threshold is ρ/8: Section 4.3.1's threshold for a 2-approximate oracle.
func (dv *dirView) threshold(rho float64) float64 { return rho / 8 }
