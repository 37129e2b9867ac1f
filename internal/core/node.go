package core

import (
	"math/rand"
	"sort"

	"distspanner/internal/dist"
)

// roundCtx is the per-vertex network surface the protocol needs: vertex
// identity plus the record send primitive. It is satisfied by *dist.Ctx
// (the LOCAL implementation) and by *congestCtx (the fragmenting CONGEST
// adapter of Section 1.3's discussion). The protocols never block on it —
// they are PhasedPrograms whose round boundaries the engine drives, and
// their inboxes arrive as step inputs.
type roundCtx interface {
	ID() int
	N() int
	Neighbors() []int
	Rand() *rand.Rand
	SendRec(to int, r dist.Rec, bits int)
}

// protocol is the per-protocol seam of the shared 2-spanner iteration.
// spannerNode runs the iteration once for every flavor; a protocol
// supplies what differs between them: its record tags and star
// encoding, the view a candidate chooses its star in, and the
// bookkeeping of which incident edges exist, need covering, and join the
// spanner. The shared node keeps, per neighbor position, one owned edge
// (edgeIdx, covered, inSpan): the undirected edge, or the directed
// out-edge (me, nbr) whose coverage the vertex announces and votes for.
type protocol interface {
	// tags returns the protocol's record tags.
	tags() *tagSet
	// candidateOK is the minimum raw density for candidacy.
	candidateOK(raw float64) bool
	// terminal decides termination from the 2-hop maxima of raw density
	// and incident edge weight.
	terminal(maxRaw, maxWeight float64) bool
	// view builds the star-choice view from the accumulated uncovered
	// lists and returns it with the density the vertex announces: a raw
	// value and, when exact, its integer rational num/den.
	view(nd *spannerNode) (v starView, raw float64, num, den int)
	// encodeStar maps the chosen star's sorted neighbor ids to its wire
	// entries; spans reports whether a candidate's entries 2-span the
	// owned edge (me, u).
	encodeStar(nd *spannerNode, ids []int) []int
	spans(star []int, me, u int) bool
	// starRec and acceptRec build the candidacy and acceptance records.
	starRec(star []int, r int64, n int) (dist.Rec, int)
	acceptRec(star []int, n int) (dist.Rec, int)
	// owns reports whether the vertex casts the vote of the owned edge
	// at position i.
	owns(nd *spannerNode, i int) bool
	// acceptOwn adds the vertex's accepted star to the spanner; accepted
	// applies the accepted star of the neighbor at position j.
	acceptOwn(nd *spannerNode)
	accepted(nd *spannerNode, j int, star []int)
	// addRemaining direct-adds every uncovered incident edge (the
	// termination step) and returns the termination payload; deathAdds
	// applies the payload of the terminated neighbor at position j.
	addRemaining(nd *spannerNode) []int
	deathAdds(nd *spannerNode, j int, added []int)
	// cover marks covered the incident edges that are not owned edges;
	// output appends their spanner members' edge indices.
	cover(nd *spannerNode)
	output(nd *spannerNode, out []int) []int
}

// tagSet is a protocol's record tags. A star record whose rank is
// acceptRank is an acceptance: a protocol whose acceptance reuses its
// star encoding gives both the same tag.
type tagSet struct {
	span, uncov, star, term, accept uint8
}

const acceptRank = -1

// uPhase indexes the seven rounds of one iteration. Each phase has
// disjoint record tags, which is how a vertex woken from a park
// re-identifies the network's current phase.
type uPhase int

const (
	phSpan   uPhase = iota + 1 // round 1 (G'): spanner-list deltas
	phUncov                    // round 2 (A): uncovered-list init/removals
	phDens                     // round 3 (B): densMsg deltas
	phMax                      // round 4 (C): maxMsg deltas
	phStar                     // round 5 (D): star / termination records
	phVote                     // round 6 (E): voteMsg (candidates only)
	phAccept                   // round 7 (F): acceptance records
)

// classify maps a wake inbox to its phase by record tag. One inbox is
// always one phase: every sender is phase-aligned and each phase's tags
// are disjoint.
func (t *tagSet) classify(msgs []dist.InRec) uPhase {
	switch r := &msgs[0]; r.Tag {
	case t.span:
		return phSpan
	case t.uncov:
		return phUncov
	case tagDens:
		return phDens
	case tagMax:
		return phMax
	case t.term:
		return phStar
	case t.star:
		if r.A == acceptRank {
			return phAccept
		}
		return phStar
	case tagVote:
		return phVote
	case t.accept:
		return phAccept
	}
	panic("core: unclassifiable wake record tag")
}

// densVal is a neighbor's last announced density or 1-hop maximum: the
// exact rational the CONGEST adapter ships, plus the weight maximum
// riding along for the weighted termination rule (the static incident
// maximum in density announcements, the 1-hop fold in maxima).
type densVal struct {
	raw      float64
	num, den int
	wmax     float64
}

// candRec is one announced star this iteration: the candidate's id, its
// sorted star entries, and its random rank.
type candRec struct {
	from int
	star []int
	r    int64
}

// spannerNode is the per-vertex state of the 2-spanner iteration. All
// per-neighbor state is held in flat slices indexed by the neighbor's
// position in the sorted neighbor list: inbox decoding resolves sender
// positions with a merge scan (dist.SeekPos), and the folds and
// broadcasts scan slices with no map in sight.
type spannerNode struct {
	ctx roundCtx
	run *run
	p   protocol

	me      int
	nbrs    []int // sorted neighbor ids
	edgeIdx []int // owned edge index per position
	covered []bool
	inSpan  []bool
	myWmax  float64

	// Monotone star-choice state (Section 4.1).
	wasCand  bool
	lastRho  float64
	prevStar []int // neighbor ids of last chosen star (selectable + free)

	// Accumulated per-neighbor state, kept in sync by deltas, all indexed
	// by neighbor position. A live neighbor's entry always equals what the
	// classic all-broadcast execution would have received from it this
	// iteration. spanOf/uncovOf are sorted id lists maintained by
	// merge/remove — the flat replacement for the old map-of-sets fold.
	alive     []bool
	spanOf    [][]int // live neighbor -> its announced owned spanner edges (sorted ids)
	uncovOf   [][]int // live neighbor -> its uncovered owned edges (sorted ids)
	densOf    []densVal
	densKnown []bool
	hopOf     []densVal
	hopKnown  []bool

	// Own derived quantities and the change-tracking behind the deltas.
	pendingSpan    []int  // inSpan additions not yet announced (round 1)
	announcedUncov []bool // per position: uncovered edge announced, removal owed when covered
	sentUncovInit  bool
	view           starView
	viewDirty      bool // uncovOf changed since the view was built
	hopDirty       bool // own density, a neighbor density, or liveness changed
	m2Dirty        bool // own 1-hop max, a neighbor 1-hop max, or liveness changed
	raw            float64
	num, den       int
	rho            float64
	densSent       bool
	lastDens       densVal
	hopRaw         float64
	hopNum, hopDen int
	hopW           float64
	hopSent        bool
	lastHop        densVal
	m2Raw, m2Rho   float64
	m2W            float64

	// Per-iteration scratch.
	iter        int
	isCand      bool
	myStar      []int // own star's wire entries
	mySpanCount int
	cands       []candRec
	myVotes     int
}

// newSpannerNode allocates the shared per-position state; the run's
// protocol then binds its edges.
func newSpannerNode(ctx roundCtx, r *run) *spannerNode {
	nd := &spannerNode{
		ctx: ctx, run: r,
		me:        ctx.ID(),
		nbrs:      ctx.Neighbors(),
		viewDirty: true,
		hopDirty:  true,
		m2Dirty:   true,
	}
	deg := len(nd.nbrs)
	nd.edgeIdx = make([]int, deg)
	nd.covered = make([]bool, deg)
	nd.inSpan = make([]bool, deg)
	nd.alive = make([]bool, deg)
	nd.spanOf = make([][]int, deg)
	nd.uncovOf = make([][]int, deg)
	nd.densOf = make([]densVal, deg)
	nd.densKnown = make([]bool, deg)
	nd.hopOf = make([]densVal, deg)
	nd.hopKnown = make([]bool, deg)
	nd.announcedUncov = make([]bool, deg)
	for i := range nd.alive {
		nd.alive[i] = true
	}
	r.bind(nd)
	return nd
}

// setInSpan records the owned edge at position i as a spanner member and
// queues the round-1 delta announcing it.
func (nd *spannerNode) setInSpan(i int) {
	if !nd.inSpan[i] {
		nd.inSpan[i] = true
		nd.pendingSpan = append(nd.pendingSpan, nd.nbrs[i])
	}
}

// bcast sends the record to every live neighbor: terminated vertices are
// pruned from all broadcasts. The record's Ints tail is staged once in
// the sender's arena and shared across the fan-out.
func (nd *spannerNode) bcast(r dist.Rec, bits int) {
	for i, u := range nd.nbrs {
		if nd.alive[i] {
			nd.ctx.SendRec(u, r, bits)
		}
	}
}

// Parkable implements dist.PhasedProgram: the vertex owes the network
// nothing in the coming iteration — no pending deltas, every fold clean,
// and no candidacy. Such a vertex parks; any input that could change its
// answers arrives as a delivery and wakes it into the right phase.
func (nd *spannerNode) Parkable() bool {
	if len(nd.pendingSpan) > 0 || nd.viewDirty || nd.hopDirty || nd.m2Dirty {
		return false
	}
	for i := range nd.announcedUncov {
		if nd.announcedUncov[i] && nd.covered[i] {
			return false // owes an uncovered-list removal
		}
	}
	// Candidacy is a pure function of the clean folds.
	return !nd.candidate()
}

// candidate is the candidacy rule: the rounded density is positive,
// maximal in the 2-neighborhood, and above the protocol's minimum.
func (nd *spannerNode) candidate() bool {
	return nd.rho > 0 && nd.rho >= nd.m2Rho && nd.p.candidateOK(nd.raw)
}

// The node implements dist.PhasedProgram: the engine (via
// dist.NewPhasedMachine) drives the iteration grid — parking between
// iterations when parkable, classifying wake inboxes into the right
// phase, and spending the terminal flush round — while the node supplies
// only the per-phase Emit/Process logic.

// Phases implements dist.PhasedProgram.
func (nd *spannerNode) Phases() (int, int) { return int(phSpan), int(phAccept) }

// Begin implements dist.PhasedProgram: record and bump the iteration
// count, reset the per-iteration scratch.
func (nd *spannerNode) Begin() {
	nd.run.iters[nd.me] = nd.iter
	nd.iter++
	nd.isCand = false
	nd.myStar = nil
	nd.mySpanCount = 0
	nd.cands = nd.cands[:0]
	nd.myVotes = 0
}

// ParkReset implements dist.PhasedProgram: parked iterations are not
// candidate iterations, so the monotone-star continuation resets exactly
// as it would have in the spinning execution.
func (nd *spannerNode) ParkReset() { nd.wasCand, nd.prevStar = false, nil }

// Classify implements dist.PhasedProgram.
func (nd *spannerNode) Classify(recs []dist.InRec) int { return int(nd.p.tags().classify(recs)) }

// Halt implements dist.PhasedProgram; unreachable (Process never halts).
func (nd *spannerNode) Halt() {}

// Terminal implements dist.PhasedProgram: output after the flush round
// that committed the termination announcement.
func (nd *spannerNode) Terminal() { nd.emitOutput() }

// Quiesce implements dist.PhasedProgram: the quiescence release
// (StepIn.Quiesced). No future round can cover anything, so the
// remaining uncovered incident edges are added directly — the same
// direct-add the paper's termination step performs — and the vertex
// outputs and halts. With the paper's termination rule this is a safety
// net: a parked vertex's 2-neighborhood always contains an active
// candidate until the vertex itself becomes terminal, so runs normally
// end by explicit termination.
func (nd *spannerNode) Quiesce() {
	nd.p.addRemaining(nd)
	it := nd.iter
	if it > 0 {
		it--
	}
	nd.run.tele.bump(nd.run.tele.term, it)
	nd.emitOutput()
}

// Emit implements dist.PhasedProgram: it queues the sends of phase ph
// (committed by the yield that returns ph's inbox) and performs the fold
// recomputations scheduled at ph. It returns true when the vertex
// terminated (phStar only).
func (nd *spannerNode) Emit(ph int) bool {
	n, t, tele := nd.ctx.N(), nd.p.tags(), nd.run.tele
	switch uPhase(ph) {
	case phSpan:
		if len(nd.pendingSpan) > 0 {
			sort.Ints(nd.pendingSpan)
			m := spanListMsg{nbrs: nd.pendingSpan, n: n}
			nd.bcast(m.rec(t.span), m.Bits())
			nd.pendingSpan = nil
		}
	case phUncov:
		nd.emitUncov()
	case phDens:
		if nd.viewDirty {
			nd.rebuildView()
		}
		dv := densVal{raw: nd.raw, num: nd.num, den: nd.den, wmax: nd.myWmax}
		if !nd.densSent || dv != nd.lastDens {
			m := densMsg{rho: nd.rho, raw: nd.raw, wmax: nd.myWmax, num: nd.num, den: nd.den}
			nd.bcast(m.rec(), m.Bits())
			nd.densSent, nd.lastDens = true, dv
		}
	case phMax:
		if nd.hopDirty {
			nd.refoldHop()
		}
		hv := densVal{raw: nd.hopRaw, num: nd.hopNum, den: nd.hopDen, wmax: nd.hopW}
		if !nd.hopSent || hv != nd.lastHop {
			m := maxMsg{rho: RoundUpPow2(nd.hopRaw), raw: nd.hopRaw, wmax: nd.hopW, num: nd.hopNum, den: nd.hopDen}
			nd.bcast(m.rec(), m.Bits())
			nd.hopSent, nd.lastHop = true, hv
		}
	case phStar:
		if nd.m2Dirty {
			nd.refoldM2()
		}
		// Termination (paper step 7): the maximal density in the
		// 2-neighborhood fell below the useful threshold. Add the
		// remaining uncovered incident edges directly and halt; the
		// termination record doubles as the death notice that prunes
		// this vertex from its peers' broadcasts.
		if nd.p.terminal(nd.m2Raw, nd.m2W) {
			tele.bump(tele.term, nd.iter-1)
			// The phased machine spends the flush round committing this
			// announcement, then calls Terminal to output.
			m := termMsg{added: nd.p.addRemaining(nd), n: n}
			nd.bcast(m.rec(t.term), m.Bits())
			return true
		}
		// Candidacy and star choice (Section 4.1).
		nd.isCand = nd.candidate()
		if !nd.isCand {
			nd.wasCand, nd.prevStar = false, nil
			break
		}
		tele.bump(tele.cand, nd.iter-1)
		var prev []bool
		if !nd.run.opts.FreshStars && nd.wasCand && nd.lastRho == nd.rho && nd.prevStar != nil {
			prev = nd.view.maskFromIDs(nd.prevStar)
		}
		sel, fb := chooseStar(nd.view, nd.rho, prev)
		if fb {
			nd.run.fallbacks.Add(1)
		}
		ids := nd.view.starNeighborIDs(sel)
		nd.myStar = nd.p.encodeStar(nd, ids)
		spanned, _ := nd.view.starValue(sel)
		nd.mySpanCount = int(spanned + 0.5)
		nd.bcast(nd.p.starRec(nd.myStar, 1+nd.ctx.Rand().Int63n(1<<62), n))
		nd.wasCand, nd.lastRho, nd.prevStar = true, nd.rho, ids
	case phVote:
		// Each owned uncovered edge votes for the first candidate (by
		// (r, id)) that 2-spans it.
		var votes map[int][]int
		for i, u := range nd.nbrs {
			if nd.covered[i] || !nd.p.owns(nd, i) {
				continue // nothing to vote for, or not the owner
			}
			bestV, bestR := -1, int64(0)
			for ci := range nd.cands {
				c := &nd.cands[ci]
				if !nd.p.spans(c.star, nd.me, u) {
					continue
				}
				if bestV < 0 || c.r < bestR || (c.r == bestR && c.from < bestV) {
					bestV, bestR = c.from, c.r
				}
			}
			if bestV >= 0 {
				if votes == nil {
					votes = make(map[int][]int)
				}
				votes[bestV] = append(votes[bestV], nd.me, u)
			}
		}
		for _, vid := range sortedKeys(votes) {
			m := voteMsg{pairs: votes[vid], n: n}
			nd.ctx.SendRec(vid, m.rec(), m.Bits())
		}
	case phAccept:
		if nd.isCand && nd.run.opts.voteDenominator()*nd.myVotes >= nd.mySpanCount && nd.mySpanCount > 0 {
			tele.bump(tele.accept, nd.iter-1)
			nd.p.acceptOwn(nd)
			nd.bcast(nd.p.acceptRec(nd.myStar, n))
		}
	}
	return false
}

// sortedKeys returns the keys of a small map in ascending order, for a
// deterministic send order.
func sortedKeys(m map[int][]int) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// emitUncov announces the uncovered owned edges: the full list once at
// start-up, removals afterwards. Receivers maintain the accumulated set,
// so the network-wide picture matches the classic full-rebroadcast
// execution exactly.
func (nd *spannerNode) emitUncov() {
	var list []int
	full := !nd.sentUncovInit
	for i, u := range nd.nbrs {
		if full && !nd.covered[i] {
			list = append(list, u)
			nd.announcedUncov[i] = true
		} else if !full && nd.announcedUncov[i] && nd.covered[i] {
			list = append(list, u)
			nd.announcedUncov[i] = false
		}
	}
	nd.sentUncovInit = true
	if !full && len(list) == 0 {
		return
	}
	m := uncovMsg{nbrs: list, full: full, n: nd.ctx.N()}
	nd.bcast(m.rec(nd.p.tags().uncov), m.Bits())
}

// Process implements dist.PhasedProgram: it decodes the records of phase
// ph in place — sender positions come from the dist.SeekPos merge scan,
// scalar fields are read straight off the record, and list tails are
// folded into the flat per-neighbor slices. The protocol halts via the
// terminal announcement in Emit, never mid-iteration.
func (nd *spannerNode) Process(ph int, inbox []dist.InRec) bool {
	t := nd.p.tags()
	j := 0
	switch uPhase(ph) {
	case phSpan:
		for i := range inbox {
			r := &inbox[i]
			if r.Tag != t.span {
				continue
			}
			j = dist.SeekPos(nd.nbrs, j, r.From)
			if !nd.alive[j] {
				continue
			}
			nd.spanOf[j] = mergeSorted(nd.spanOf[j], r.Ints)
		}
		nd.updateCoverage()
	case phUncov:
		for i := range inbox {
			r := &inbox[i]
			if r.Tag != t.uncov {
				continue
			}
			j = dist.SeekPos(nd.nbrs, j, r.From)
			if !nd.alive[j] {
				continue
			}
			if r.Flag != 0 {
				nd.uncovOf[j] = append(nd.uncovOf[j][:0], r.Ints...)
			} else {
				nd.uncovOf[j] = removeSorted(nd.uncovOf[j], r.Ints)
			}
			nd.viewDirty = true
		}
	case phDens, phMax:
		// Both folds store the announced value and dirty the fold one hop
		// further out.
		tag, vals, known, dirty := tagDens, nd.densOf, nd.densKnown, &nd.hopDirty
		if uPhase(ph) == phMax {
			tag, vals, known, dirty = tagMax, nd.hopOf, nd.hopKnown, &nd.m2Dirty
		}
		for i := range inbox {
			r := &inbox[i]
			if r.Tag != tag {
				continue
			}
			j = dist.SeekPos(nd.nbrs, j, r.From)
			if !nd.alive[j] {
				continue
			}
			vals[j] = densVal{raw: r.F1, num: int(r.A), den: int(r.B), wmax: r.F2}
			known[j] = true
			*dirty = true
		}
	case phStar:
		for i := range inbox {
			r := &inbox[i]
			j = dist.SeekPos(nd.nbrs, j, r.From)
			switch r.Tag {
			case t.term:
				nd.processDeath(j, r.Ints)
			case t.star:
				// The star list is retained across the iteration; copy it
				// out of the arena.
				nd.cands = append(nd.cands, candRec{
					from: r.From,
					star: append([]int(nil), r.Ints...),
					r:    r.A,
				})
			}
		}
	case phVote:
		for i := range inbox {
			r := &inbox[i]
			if r.Tag == tagVote {
				nd.myVotes += len(r.Ints) / 2
			}
		}
	case phAccept:
		for i := range inbox {
			r := &inbox[i]
			if r.Tag != t.accept {
				continue
			}
			j = dist.SeekPos(nd.nbrs, j, r.From)
			nd.p.accepted(nd, j, r.Ints)
		}
	}
	return false
}

// processDeath handles the termination announcement of the neighbor at
// position i: record the direct-added edges naming this vertex, then
// prune the sender from every accumulated fold — exactly the information
// the classic execution loses when a terminated vertex stops
// broadcasting.
func (nd *spannerNode) processDeath(i int, added []int) {
	nd.p.deathAdds(nd, i, added)
	nd.alive[i] = false
	nd.densKnown[i] = false
	nd.hopKnown[i] = false
	nd.spanOf[i] = nil
	if len(nd.uncovOf[i]) > 0 {
		nd.viewDirty = true
	}
	nd.uncovOf[i] = nil
	nd.hopDirty = true
	nd.m2Dirty = true
}

// updateCoverage marks owned edges covered when the spanner contains
// them or a 2-path around them through a live neighbor's announced
// spanner edges, then lets the protocol cover the rest.
func (nd *spannerNode) updateCoverage() {
	for i, u := range nd.nbrs {
		if nd.covered[i] {
			continue
		}
		if nd.inSpan[i] {
			nd.covered[i] = true
			continue
		}
		for x := range nd.nbrs {
			if nd.inSpan[x] && nd.alive[x] && containsSorted(nd.spanOf[x], u) {
				nd.covered[i] = true
				break
			}
		}
	}
	nd.p.cover(nd)
}

// rebuildView reassembles the view from the accumulated uncovered sets
// and recomputes the densest-star density (the expensive flow-oracle
// step — run only when an input actually changed).
func (nd *spannerNode) rebuildView() {
	nd.viewDirty = false
	var raw float64
	var num, den int
	nd.view, raw, num, den = nd.p.view(nd)
	if raw != nd.raw || num != nd.num || den != nd.den {
		nd.hopDirty = true
	}
	nd.raw, nd.num, nd.den = raw, num, den
	nd.rho = nd.run.round(raw)
}

// hEdges lists the uncovered 2-spannable edges between neighbors, in the
// same (sender ascending, endpoint ascending, owner-side only) order the
// classic execution reads them off its round-2 inbox. The accumulated
// uncovered lists are already sorted, so this is a flat scan.
func (nd *spannerNode) hEdges() [][2]int {
	var out [][2]int
	for i, u := range nd.nbrs {
		for _, w := range nd.uncovOf[i] {
			if u < w && containsSorted(nd.nbrs, w) {
				out = append(out, [2]int{u, w})
			}
		}
	}
	return out
}

// refoldHop recomputes the 1-hop maxima (own values first, then live
// neighbors in id order — the fold the classic execution performs on its
// round-3 inbox).
func (nd *spannerNode) refoldHop() {
	nd.hopDirty = false
	oldHop := densVal{raw: nd.hopRaw, num: nd.hopNum, den: nd.hopDen, wmax: nd.hopW}
	nd.hopRaw, nd.hopNum, nd.hopDen = nd.raw, nd.num, nd.den
	nd.hopW = nd.myWmax
	for i := range nd.nbrs {
		if !nd.alive[i] || !nd.densKnown[i] {
			continue
		}
		d := nd.densOf[i]
		if d.raw > nd.hopRaw {
			nd.hopRaw, nd.hopNum, nd.hopDen = d.raw, d.num, d.den
		}
		nd.hopW = maxf(nd.hopW, d.wmax)
	}
	if (densVal{raw: nd.hopRaw, num: nd.hopNum, den: nd.hopDen, wmax: nd.hopW}) != oldHop {
		nd.m2Dirty = true
	}
}

// refoldM2 recomputes the 2-hop maxima from the accumulated 1-hop maxima.
func (nd *spannerNode) refoldM2() {
	nd.m2Dirty = false
	nd.m2Raw, nd.m2W = nd.hopRaw, nd.hopW
	for i := range nd.nbrs {
		if !nd.alive[i] || !nd.hopKnown[i] {
			continue
		}
		h := nd.hopOf[i]
		nd.m2Raw = maxf(nd.m2Raw, h.raw)
		nd.m2W = maxf(nd.m2W, h.wmax)
	}
	nd.m2Rho = nd.run.round(nd.m2Raw)
}

func (nd *spannerNode) emitOutput() {
	var out []int
	for i := range nd.nbrs {
		if nd.inSpan[i] {
			out = append(out, nd.edgeIdx[i])
		}
	}
	out = nd.p.output(nd, out)
	sort.Ints(out)
	nd.run.outs[nd.me] = out
}
