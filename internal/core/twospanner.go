package core

import (
	"errors"
	"fmt"
	"sort"
	"sync/atomic"

	"distspanner/internal/dist"
	"distspanner/internal/graph"
)

// Options configures a run of the distributed algorithms.
type Options struct {
	// Seed drives all per-vertex randomness; runs are deterministic
	// functions of (instance, Seed).
	Seed int64
	// MaxRounds aborts runaway executions; zero uses the engine default.
	MaxRounds int
	// RoundHook, when non-nil, receives the engine's per-round activity
	// snapshots (see dist.Config.OnRound) — the activity curve of the run.
	RoundHook func(dist.RoundActivity)
	// Cancel, when non-nil, aborts the run at the next round boundary
	// once closed (see dist.Config.Cancel); timed-out sweeps use it so an
	// abandoned run actually stops.
	Cancel <-chan struct{}
	// Tracer, when non-nil, receives the run's execution narration — the
	// deterministic logical transcript and the wall-clock timing channel
	// (see dist.Config.Tracer). Zero cost when nil.
	Tracer dist.Tracer

	// VoteDenominator is an ablation knob for the acceptance rule: a
	// candidate star is accepted when votes >= |C_v| / VoteDenominator.
	// Zero means the paper's 8. Smaller values accept fewer stars per
	// iteration (more rounds); larger values accept stars with heavy
	// vote overlap (worse ratio constant).
	VoteDenominator int
	// FreshStars is an ablation knob disabling the Section 4.1 monotone
	// star-choice rule: every candidacy picks a fresh star. Claim 4.4's
	// potential argument — the basis of the O(log n log Δ) round bound —
	// relies on the rule; the ablation measures what it buys.
	FreshStars bool
	// NoRounding is an ablation knob skipping the power-of-two density
	// rounding: candidacy then requires being an exact local maximum.
	// Rounding is what caps the number of density levels at O(log Δ); the
	// ablation measures the cost of exact comparisons.
	NoRounding bool
}

func (o Options) voteDenominator() int {
	if o.VoteDenominator <= 0 {
		return 8
	}
	return o.VoteDenominator
}

// IterationStat is per-iteration telemetry of a run.
type IterationStat struct {
	// Candidates is the number of vertices whose rounded density was
	// maximal in their 2-neighborhood this iteration.
	Candidates int
	// Accepted is the number of candidate stars that reached the voting
	// threshold and joined the spanner.
	Accepted int
	// Terminated is the number of vertices that halted this iteration.
	Terminated int
}

// Result reports the outcome of a distributed spanner construction.
type Result struct {
	// Spanner is the union of the edges output by all vertices.
	Spanner *graph.EdgeSet
	// Cost is the spanner's total weight (edge count when unweighted).
	Cost float64
	// Stats carries the engine's round/message/bit measurements, including
	// the ActiveSteps/ParkedSteps activity profile.
	Stats dist.Stats
	// Iterations is the maximum number of algorithm iterations any vertex
	// executed (each iteration is a constant number of rounds). Parked
	// vertices skip iterations, so this counts the longest active
	// participation.
	Iterations int
	// PerIteration is the telemetry of each iteration, in order.
	PerIteration []IterationStat
	// Fallbacks counts uses of the degenerate star-choice fallback of
	// Section 4.1, which Claim 4.4 proves is never taken. It should be 0;
	// tests assert this invariant.
	Fallbacks int64
}

// telemetry collects per-iteration counters across the concurrently
// running vertices. Slices are fixed-size; iterations beyond the cap are
// executed but not recorded (far beyond any w.h.p. bound).
type telemetry struct {
	cand, accept, term []atomic.Int32
}

const telemetryCap = 4096

func newTelemetry() *telemetry {
	return &telemetry{
		cand:   make([]atomic.Int32, telemetryCap),
		accept: make([]atomic.Int32, telemetryCap),
		term:   make([]atomic.Int32, telemetryCap),
	}
}

func (t *telemetry) stats(maxIter int) []IterationStat {
	if maxIter+1 > telemetryCap {
		maxIter = telemetryCap - 1
	}
	out := make([]IterationStat, maxIter+1)
	for i := range out {
		out[i] = IterationStat{
			Candidates: int(t.cand[i].Load()),
			Accepted:   int(t.accept[i].Load()),
			Terminated: int(t.term[i].Load()),
		}
	}
	return out
}

func (t *telemetry) bump(arr []atomic.Int32, iter int) {
	if iter < telemetryCap {
		arr[iter].Add(1)
	}
}

// run owns the cross-vertex collectors of one 2-spanner run — per-vertex
// outputs, iteration counts, the Claim 4.4 fallback counter, and
// iteration telemetry — and the machine factory that closes over them.
// Every public runner and its program.go export build one run and use
// its factory, so each protocol has one construction path.
type run struct {
	topo    *graph.Graph // communication graph
	opts    Options
	bind    func(nd *spannerNode) // the protocol's per-vertex setup
	factory func(*dist.Ctx) dist.Machine
	m       int
	total   func(*graph.EdgeSet) float64

	outs      [][]int // per-vertex incident spanner edge indices
	iters     []int   // per-vertex iteration counts
	fallbacks atomic.Int64
	tele      *telemetry
}

func newRun(topo *graph.Graph, m int, total func(*graph.EdgeSet) float64, opts Options, bind func(*spannerNode)) *run {
	n := topo.N()
	r := &run{topo: topo, opts: opts, bind: bind, m: m, total: total,
		outs: make([][]int, n), iters: make([]int, n), tele: newTelemetry()}
	r.factory = func(ctx *dist.Ctx) dist.Machine { return r.machine(ctx) }
	return r
}

// machine builds one vertex's phased machine over ctx.
func (r *run) machine(ctx roundCtx) dist.Machine {
	return dist.NewPhasedMachine(newSpannerNode(ctx, r))
}

// round is the density rounding ρ̃ — the identity under the NoRounding
// ablation.
func (r *run) round(x float64) float64 {
	if r.opts.NoRounding {
		return x
	}
	return RoundUpPow2(x)
}

// program packages the run as a shard program.
func (r *run) program() dist.ShardProgram {
	return dist.ShardProgram{Graph: r.topo, Factory: r.factory, Output: func(v int) []int { return r.outs[v] }}
}

// execute runs the factory on the local engine under cfg (whose Graph,
// Seed and observation hooks it fills from the run) and folds the
// collectors into a Result.
func (r *run) execute(cfg dist.Config) (*Result, error) {
	o := r.opts
	cfg.Graph, cfg.Seed, cfg.MaxRounds = r.topo, o.Seed, o.MaxRounds
	cfg.OnRound, cfg.Cancel, cfg.Tracer = o.RoundHook, o.Cancel, o.Tracer
	stats, err := dist.RunMachines(cfg, r.factory)
	if err != nil {
		return nil, err
	}
	spanner := graph.NewEdgeSet(r.m)
	for _, edges := range r.outs {
		for _, e := range edges {
			spanner.Add(e)
		}
	}
	maxIter := 0
	for _, it := range r.iters {
		if it > maxIter {
			maxIter = it
		}
	}
	return &Result{
		Spanner:      spanner,
		Cost:         r.total(spanner),
		Stats:        *stats,
		Iterations:   maxIter,
		PerIteration: r.tele.stats(maxIter),
		Fallbacks:    r.fallbacks.Load(),
	}, nil
}

// variant is the undirected protocol in its three flavors: plain
// (Theorem 1.3), weighted (Theorem 4.12), and client-server (Theorem
// 4.15). One variant serves every vertex of a run.
type variant struct {
	g *graph.Graph
	// target reports whether edge i needs covering (client edges in the
	// client-server problem, every edge otherwise).
	target func(i int) bool
	// starEdge reports whether edge i may participate in a star (server
	// edges in the client-server problem, every edge otherwise).
	starEdge func(i int) bool
	// directAdd reports whether edge i may be added directly to the
	// spanner at termination (client ∩ server edges in the client-server
	// problem, every edge otherwise).
	directAdd func(i int) bool
	// minRaw is the minimum raw density for candidacy.
	minRaw func(raw float64) bool
	// done decides termination from the 2-hop maxima of raw density and
	// incident edge weight.
	done func(maxRaw, maxWeight float64) bool
}

// TwoSpanner runs the paper's distributed minimum 2-spanner algorithm
// (Section 4) on the connected undirected graph g. If g is weighted the
// weighted variant (Section 4.3.2) runs, including its zero-weight edge
// pre-pass; otherwise the unweighted algorithm of Theorem 1.3 runs.
func TwoSpanner(g *graph.Graph, opts Options) (*Result, error) {
	return twoSpannerRun(g, opts).execute(dist.Config{})
}

func twoSpannerRun(g *graph.Graph, opts Options) *run {
	return twoSpannerVariant(g).run(opts)
}

// twoSpannerVariant is the plain (Theorem 1.3) or weighted (Theorem
// 4.12) flavor of the undirected protocol, chosen by g.Weighted().
func twoSpannerVariant(g *graph.Graph) *variant {
	all := func(int) bool { return true }
	v := &variant{
		g:         g,
		target:    all,
		starEdge:  all,
		directAdd: all,
		minRaw:    func(raw float64) bool { return raw >= 1 },
		done:      func(maxRaw, _ float64) bool { return maxRaw <= 1 },
	}
	if g.Weighted() {
		v.minRaw = func(raw float64) bool { return raw > 0 }
		v.done = func(maxRaw, maxWeight float64) bool {
			if maxWeight <= 0 {
				return true
			}
			return maxRaw <= 1/maxWeight
		}
	}
	return v
}

// ClientServerTwoSpanner runs the client-server variant (Section 4.3.3):
// cover every client edge using only server edges. Client edges with no
// possible server cover are left uncovered, matching the paper's
// convention; use span.CoverableClients to identify them.
func ClientServerTwoSpanner(g *graph.Graph, clients, servers *graph.EdgeSet, opts Options) (*Result, error) {
	r, err := clientServerRun(g, clients, servers, opts)
	if err != nil {
		return nil, err
	}
	return r.execute(dist.Config{})
}

// clientServerRun validates the edge sets and builds a run of the
// Section 4.3.3 flavor of the undirected protocol.
func clientServerRun(g *graph.Graph, clients, servers *graph.EdgeSet, opts Options) (*run, error) {
	if clients == nil || servers == nil {
		return nil, errors.New("core: client-server variant requires client and server edge sets")
	}
	if clients.Universe() != g.M() || servers.Universe() != g.M() {
		return nil, fmt.Errorf("core: edge set universes must equal M()=%d", g.M())
	}
	if g.Weighted() {
		return nil, errors.New("core: client-server variant is unweighted in the paper")
	}
	v := &variant{
		g:         g,
		target:    clients.Has,
		starEdge:  servers.Has,
		directAdd: func(i int) bool { return clients.Has(i) && servers.Has(i) },
		minRaw:    func(raw float64) bool { return raw >= 0.5 },
		done:      func(maxRaw, _ float64) bool { return maxRaw < 0.5 },
	}
	return v.run(opts), nil
}

func (v *variant) run(opts Options) *run {
	return newRun(v.g, v.g.M(), v.g.TotalWeight, opts, v.bind)
}

// bind sets up a vertex's incident edges: every incident edge is owned,
// non-target edges start covered, and the weighted pre-pass puts the
// zero-weight star edges into the spanner.
func (v *variant) bind(nd *spannerNode) {
	nd.p = v
	for i, u := range nd.nbrs {
		idx, ok := v.g.EdgeIndex(nd.me, u)
		if !ok {
			panic("core: neighbor without edge")
		}
		nd.edgeIdx[i] = idx
		if !v.target(idx) {
			// Non-target edges never need covering.
			nd.covered[i] = true
		}
		if v.g.Weighted() && v.g.Weight(idx) == 0 && v.starEdge(idx) {
			// Weighted pre-pass: all zero-weight edges join the spanner.
			nd.setInSpan(i)
		}
		nd.myWmax = maxf(nd.myWmax, v.g.Weight(idx))
	}
}

var undirectedTags = tagSet{span: tagSpan, uncov: tagUncov, star: tagStar, term: tagTerm, accept: tagAccept}

func (v *variant) tags() *tagSet                           { return &undirectedTags }
func (v *variant) candidateOK(raw float64) bool            { return v.minRaw(raw) }
func (v *variant) terminal(maxRaw, maxWeight float64) bool { return v.done(maxRaw, maxWeight) }

// view assembles the localView — selectable star edges with their costs,
// free (zero-weight) star edges, and the uncovered H_v edges — and its
// densest-star density. In the unweighted case the density's (spanned,
// cost) are exact integers, which the CONGEST adapter ships verbatim so
// every vertex computes bit-identical values.
func (v *variant) view(nd *spannerNode) (starView, float64, int, int) {
	selectable := make(map[int]float64)
	var free []int
	for i, u := range nd.nbrs {
		idx := nd.edgeIdx[i]
		if !v.starEdge(idx) {
			continue
		}
		if w := v.g.Weight(idx); w == 0 {
			free = append(free, u)
		} else {
			selectable[u] = w
		}
	}
	lv := newLocalView(selectable, free, nd.hEdges())
	raw, num, den := 0.0, 0, 1
	if sel, _ := lv.densestStar(nil); sel != nil {
		if s, c := lv.starValue(sel); c > 0 {
			raw = s / c
			num, den = int(s+0.5), int(c+0.5)
		}
	}
	return lv, raw, num, den
}

// An undirected star is its sorted neighbor ids; it 2-spans {me, u} when
// it contains both endpoints.
func (v *variant) encodeStar(_ *spannerNode, ids []int) []int { return ids }
func (v *variant) spans(star []int, me, u int) bool {
	return containsSorted(star, me) && containsSorted(star, u)
}

func (v *variant) starRec(star []int, r int64, n int) (dist.Rec, int) {
	m := starMsg{star: star, r: r, n: n}
	return m.rec(), m.Bits()
}

func (v *variant) acceptRec(star []int, n int) (dist.Rec, int) {
	m := acceptMsg{star: star, n: n}
	return m.rec(), m.Bits()
}

// owns: an undirected edge votes from its lower endpoint.
func (v *variant) owns(nd *spannerNode, i int) bool { return nd.me < nd.nbrs[i] }

func (v *variant) acceptOwn(nd *spannerNode) {
	for _, u := range nd.myStar {
		nd.setInSpan(posOf(nd.nbrs, u))
	}
}

func (v *variant) accepted(nd *spannerNode, j int, star []int) {
	if containsSorted(star, nd.me) {
		nd.setInSpan(j)
	}
}

// addRemaining adds the uncovered directly addable incident edges, named
// by their far endpoints.
func (v *variant) addRemaining(nd *spannerNode) []int {
	var added []int
	for i, u := range nd.nbrs {
		if !nd.covered[i] && v.directAdd(nd.edgeIdx[i]) {
			nd.inSpan[i] = true
			nd.covered[i] = true
			added = append(added, u)
		}
	}
	return added
}

func (v *variant) deathAdds(nd *spannerNode, j int, added []int) {
	if containsSorted(added, nd.me) {
		nd.setInSpan(j)
		nd.covered[j] = true
	}
}

// Every undirected incident edge is an owned edge.
func (v *variant) cover(*spannerNode)                     {}
func (v *variant) output(_ *spannerNode, out []int) []int { return out }

// posOf is the cold-path id -> position lookup (binary search) for ids
// that must be neighbors; it panics on a miss rather than silently
// resolving to the insertion slot. Use idxOf when absence is legitimate.
func posOf(nbrs []int, id int) int {
	i, ok := idxOf(nbrs, id)
	if !ok {
		panic("core: id is not a neighbor")
	}
	return i
}

// idxOf resolves an id to its position in the sorted neighbor list,
// reporting whether it is a neighbor at all.
func idxOf(nbrs []int, id int) (int, bool) {
	i := sort.SearchInts(nbrs, id)
	return i, i < len(nbrs) && nbrs[i] == id
}

// containsSorted reports whether the sorted slice s contains x.
func containsSorted(s []int, x int) bool {
	i := sort.SearchInts(s, x)
	return i < len(s) && s[i] == x
}

// mergeSorted merges the sorted, duplicate-free slice add into the sorted
// slice dst in place (merging from the back after growing), returning the
// merged slice. add may alias an inbox arena; its values are copied.
func mergeSorted(dst, add []int) []int {
	if len(add) == 0 {
		return dst
	}
	if len(dst) == 0 || dst[len(dst)-1] < add[0] {
		return append(dst, add...)
	}
	i, j := len(dst)-1, len(add)-1
	dst = append(dst, add...)
	for k := len(dst) - 1; j >= 0; k-- {
		if i >= 0 && dst[i] > add[j] {
			dst[k] = dst[i]
			i--
		} else {
			dst[k] = add[j]
			j--
		}
	}
	return dst
}

// removeSorted deletes the sorted values of del from the sorted slice dst
// in place, returning the shortened slice.
func removeSorted(dst, del []int) []int {
	if len(del) == 0 || len(dst) == 0 {
		return dst
	}
	out := dst[:0]
	k := 0
	for _, v := range dst {
		if k < len(del) && del[k] == v {
			k++
			continue
		}
		out = append(out, v)
	}
	return out
}

func maxf(a, b float64) float64 {
	if a >= b {
		return a
	}
	return b
}
