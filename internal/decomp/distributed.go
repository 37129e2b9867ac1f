package decomp

import (
	"math"
	"sort"

	"distspanner/internal/dist"
	"distspanner/internal/graph"
)

// This file runs Linial-Saks as an actual message-passing protocol on the
// round engine, as the LOCAL model executes it: per phase, every remaining
// vertex draws a truncated-geometric radius and floods a (origin, radius,
// distance) token through the remaining subgraph for O(log n) rounds;
// vertices captured strictly inside the ball of their highest-id candidate
// cluster and leave. DistributedLinialSaks returns both the decomposition
// and the engine's round/message statistics.

// lsToken is one flooded candidate: origin vertex, its radius, and the
// hop distance from the origin to the receiver.
type lsToken struct {
	Origin, R, D int
}

// Record tags: a batch of newly improved tokens, packed three words per
// token in the tail, and the announcement that the sender was captured
// this phase.
const (
	lsTagTokens uint8 = iota + 1
	lsTagClustered
)

// lsTokensBits bills a token batch: one length word plus three id words
// per token.
func lsTokensBits(tokens, n int) int { return (1 + 3*tokens) * dist.IDBits(n) }

// lsClusteredBits bills the capture announcement: a single flag bit.
const lsClusteredBits = 1

// DistributedLinialSaks executes the Linial-Saks decomposition as a
// message-passing protocol and returns the decomposition plus the
// communication statistics. Results match the guarantees of LinialSaks;
// the exact clustering differs because radii are drawn from per-vertex
// RNG streams.
func DistributedLinialSaks(g *graph.Graph, seed int64) (*Decomposition, *dist.Stats, error) {
	n := g.N()
	d := &Decomposition{
		Cluster: make([]int, n),
		Color:   make([]int, n),
	}
	for v := range d.Cluster {
		d.Cluster[v] = -1
		d.Color[v] = -1
	}
	if n == 0 {
		return d, &dist.Stats{}, nil
	}
	maxRadius := 2*int(math.Ceil(math.Log2(float64(n+1)))) + 1
	maxPhases := 50 + 10*int(math.Ceil(math.Log2(float64(n+1))))

	stats, err := dist.RunMachines(dist.Config{Graph: g, Seed: seed}, func(*dist.Ctx) dist.Machine {
		return &lsMachine{d: d, maxRadius: maxRadius, maxPhases: maxPhases}
	})
	if err != nil {
		return nil, nil, err
	}
	colors := 0
	for _, c := range d.Color {
		if c+1 > colors {
			colors = c + 1
		}
	}
	d.NumColors = colors
	return d, stats, nil
}

// lsState is an lsMachine's resume point between steps.
type lsState uint8

const (
	lsFlood    lsState = iota // awaiting flood round's token inbox
	lsExchange                // awaiting the capture announcements
	lsLeaving                 // captured; announcement in flight
)

// lsCand is a known candidate cluster: its radius and the best hop
// distance to its origin.
type lsCand struct{ r, d int }

// lsMachine is one vertex of the protocol. Each phase draws a radius,
// floods tokens for maxRadius+1 rounds, then spends one round learning
// which neighbors were captured; a captured vertex announces it and
// retires after that round.
type lsMachine struct {
	d                    *Decomposition
	maxRadius, maxPhases int
	phase, round         int
	state                lsState
	remaining            map[int]bool
	known                map[int]lsCand
	fresh                []lsToken
	tail                 []int
}

func (m *lsMachine) Step(ctx *dist.Ctx, in dist.StepIn) dist.StepStatus {
	if in.Start {
		m.remaining = make(map[int]bool, ctx.Degree())
		for _, u := range ctx.Neighbors() {
			m.remaining[u] = true
		}
		m.beginPhase(ctx)
		return m.flood(ctx)
	}
	switch m.state {
	case lsFlood:
		for _, rec := range in.Recs {
			if rec.Tag != lsTagTokens {
				continue
			}
			for i := 0; i+2 < len(rec.Ints); i += 3 {
				tok := lsToken{Origin: rec.Ints[i], R: rec.Ints[i+1], D: rec.Ints[i+2]}
				if c, seen := m.known[tok.Origin]; !seen || tok.D < c.d {
					m.known[tok.Origin] = lsCand{r: tok.R, d: tok.D}
					m.fresh = append(m.fresh, tok)
				}
			}
		}
		if m.round++; m.round <= m.maxRadius {
			return m.flood(ctx)
		}
		// Capture: highest-id candidate whose ball covers me.
		captor, best := -1, lsCand{}
		for o, c := range m.known {
			if c.d <= c.r && o > captor {
				captor, best = o, c
			}
		}
		if captor >= 0 && best.d < best.r {
			m.d.Cluster[ctx.ID()] = captor
			m.d.Color[ctx.ID()] = m.phase
			ctx.BroadcastRec(dist.Rec{Tag: lsTagClustered}, lsClusteredBits)
			m.state = lsLeaving
			return dist.StepYield
		}
		m.state = lsExchange
		return dist.StepYield
	case lsExchange:
		// Learn which neighbors left this phase.
		for _, rec := range in.Recs {
			if rec.Tag == lsTagClustered {
				delete(m.remaining, rec.From)
			}
		}
		if m.phase++; m.phase < m.maxPhases {
			m.beginPhase(ctx)
			return m.flood(ctx)
		}
		// Safety net (astronomically unlikely): self-cluster with a color
		// distinct from every phase color and from other stragglers'.
		m.d.Cluster[ctx.ID()] = ctx.ID()
		m.d.Color[ctx.ID()] = m.maxPhases + ctx.ID()
	}
	return dist.StepDone
}

// beginPhase draws this phase's truncated-geometric radius and seeds
// the flood with the vertex's own token.
func (m *lsMachine) beginPhase(ctx *dist.Ctx) {
	r := 0
	for r < m.maxRadius && ctx.Rand().Intn(2) == 0 {
		r++
	}
	m.round = 0
	m.known = map[int]lsCand{ctx.ID(): {r: r, d: 0}}
	m.fresh = []lsToken{{Origin: ctx.ID(), R: r, D: 0}}
}

// flood forwards every fresh token that can travel one more hop to the
// remaining neighbors, then yields for the round's token inbox.
func (m *lsMachine) flood(ctx *dist.Ctx) dist.StepStatus {
	var outgoing []lsToken
	for _, tok := range m.fresh {
		if tok.D < tok.R {
			outgoing = append(outgoing, lsToken{Origin: tok.Origin, R: tok.R, D: tok.D + 1})
		}
	}
	sort.Slice(outgoing, func(i, j int) bool { return outgoing[i].Origin < outgoing[j].Origin })
	if len(outgoing) > 0 {
		m.tail = m.tail[:0]
		for _, tok := range outgoing {
			m.tail = append(m.tail, tok.Origin, tok.R, tok.D)
		}
		bits := lsTokensBits(len(outgoing), ctx.N())
		for _, u := range ctx.Neighbors() {
			if m.remaining[u] {
				ctx.SendRec(u, dist.Rec{Tag: lsTagTokens, Ints: m.tail}, bits)
			}
		}
	}
	m.fresh = nil
	m.state = lsFlood
	return dist.StepYield
}
