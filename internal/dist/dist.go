// Package dist is the synchronous round-based message-passing simulator
// the distributed algorithms run on. It implements the classic LOCAL /
// CONGEST execution model of the paper: computation proceeds in global
// rounds, in each round every vertex sends records to neighbors, and all
// records sent in round r are delivered at the start of round r+1.
//
// A protocol is one explicit state machine per vertex (Machine), stepped
// by the engine in every round the vertex is active (RunMachines). The
// engine meters every record at the size its sender declares, so the
// same protocol can be classified as LOCAL (unbounded messages) or
// CONGEST (O(log n) bits per edge per round) from its measured Stats —
// and with Config.Enforce set, exceeding the bandwidth budget is a
// runtime error, making CONGEST legality a checked property rather than
// an assumption.
//
// # Accounting model
//
//   - A "round" is one synchronous boundary: it completes when every
//     active vertex has stepped — yielded (StepYield), parked (StepPark),
//     or retired (StepDone). Stats.Rounds counts completed rounds; for
//     protocols whose vertices only yield this equals the maximum number
//     of yields made by any vertex.
//   - Each record is metered at its declared size. Stats.TotalBits and
//     Stats.Messages aggregate over the whole run; Stats.MaxMessageBits is
//     the largest single record.
//   - Stats.MaxEdgeRoundBits is the maximum, over every directed edge and
//     round, of the bits sent across that edge in that round. A protocol
//     is CONGEST-legal for budget B iff MaxEdgeRoundBits <= B; that is
//     what Stats.CongestCompatible reports and Config.Enforce enforces.
//   - With Config.CutSide set, Stats.CutBits additionally totals the bits
//     crossing the two-party cut, which is what converts runs on the
//     lower-bound constructions into communication-complexity arguments.
//   - Stats.ActiveSteps, Stats.ParkedSteps, and Stats.PeakActive record
//     the run's activity profile: how many vertices each completed round
//     actually stepped, and how many sat parked. Config.OnRound exposes
//     the full per-round curve.
//
// Executions are deterministic functions of (Config.Graph, Config.Seed):
// each vertex gets a private RNG derived from the seed, and inboxes are
// delivered sorted by sender id, so the sharding of steps and metering
// across goroutines never leaks into results or statistics.
//
// # One engine, one reference
//
// RunMachines is the only engine (step.go): a round is one scan over
// the active set on the caller's goroutine, with machine steps and
// per-sender metering sharded across GOMAXPROCS workers when the round
// is large. Quiet (parked) vertices cost nothing, so a round costs
// O(#active + #senders), and there is no per-vertex goroutine or stack,
// which is what lets runs scale to millions of vertices on one box.
// Config.Shards runs the same loop partitioned across workers that
// speak a round protocol over a transport (transport.go, coord.go,
// shard.go).
//
// RunReference (ref.go) is a deliberately naive sequential interpreter
// of the same semantics, called only by tests. The engine is correct
// when it agrees with the reference on Stats, outputs, the activity
// curve, and the traced transcript — the conformance suites diff the two.
//
// # Quiescence
//
// A vertex that has nothing to do until it hears from a neighbor parks
// (StepPark) instead of yielding every round. If every live vertex is
// parked and no records are in flight, no round could ever change
// anything: the run has quiesced. The engine then steps every parked
// machine with StepIn.Quiesced set, letting it finalize and retire.
// Quiescence is itself deterministic.
package dist

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"time"

	"distspanner/internal/graph"
)

// Config configures a run.
type Config struct {
	// Graph is the communication topology; vertices are 0..N()-1 and
	// messages travel only along its edges.
	Graph *graph.Graph
	// Seed drives all per-vertex randomness. Runs are deterministic
	// functions of (Graph, Seed).
	Seed int64
	// Bandwidth is the per-directed-edge per-round bit budget. Zero means
	// unlimited (pure LOCAL); a positive value defines what counts as a
	// bandwidth violation.
	Bandwidth int
	// Enforce makes a bandwidth violation abort the run with an error
	// wrapping ErrBandwidth. Without it, violations are only counted in
	// Stats.BandwidthViolations.
	Enforce bool
	// MaxRounds aborts runaway executions with an error wrapping
	// ErrRoundLimit; zero uses DefaultMaxRounds.
	MaxRounds int
	// CutSide, when non-nil, partitions the vertices into a two-party cut
	// (Alice = false, Bob = true); the engine then meters the bits
	// crossing the cut in Stats.CutBits. Length must equal Graph.N().
	CutSide []bool
	// Shards, when positive, runs RunMachines distributed: the graph is
	// partitioned into that many contiguous vertex ranges, each stepped
	// by its own worker over the in-process channel transport, with the
	// round/quiescence protocol run by a coordinator (see transport.go,
	// coord.go). Results, Stats, and trace digests are bit-identical to
	// the single-engine run — the transport conformance suite asserts
	// exactly that. Zero means off; the wire transports
	// (internal/dist/wire) use Coordinate/ServeShard directly.
	Shards int
	// OnRound, when non-nil, is called after every completed round with
	// that round's activity snapshot, in round order, on the scheduler
	// goroutine while no machine is being stepped. It must not call back
	// into the engine or block; it is the hook behind per-scenario
	// activity curves.
	OnRound func(RoundActivity)
	// Cancel, when non-nil, aborts the run with an error wrapping
	// ErrCanceled once the channel is closed (or receives). It is checked
	// at every round boundary — the same points as the MaxRounds check —
	// so a canceled run stops within one round; timed-out sweep runs use
	// it to stop burning CPU.
	Cancel <-chan struct{}
	// Tracer, when non-nil, receives the run's execution narration: the
	// deterministic logical transcript (per-vertex send/deliver/wake/
	// park/retire events plus per-round Phase snapshots) and the
	// separate wall-clock timing channel. See trace.go for the contract.
	// Tracer calls happen on the scheduler goroutine — the same
	// discipline as OnRound — and must not call back into the engine or
	// block. A nil Tracer costs nothing: no timestamps are taken and the
	// hot path performs zero extra allocations.
	Tracer Tracer
}

// DefaultMaxRounds is the round limit used when Config.MaxRounds is zero.
const DefaultMaxRounds = 1 << 20

// ErrRoundLimit is wrapped by a run's error when MaxRounds is exceeded.
var ErrRoundLimit = errors.New("dist: round limit exceeded")

// ErrBandwidth is wrapped by a run's error when an enforced bandwidth
// budget is violated.
var ErrBandwidth = errors.New("dist: bandwidth exceeded")

// ErrCanceled is wrapped by a run's error when Config.Cancel fires.
var ErrCanceled = errors.New("dist: run canceled")

// engine is the shared state of one run. Only the scheduler goroutine
// touches it; sharded steps and metering write per-vertex state only.
type engine struct {
	g         *graph.Graph
	n         int
	bandwidth int
	enforce   bool
	maxRounds int
	cut       []bool
	cancel    <-chan struct{} // nil: never canceled
	routePar  int             // goroutines for sharded metering
	stepPar   int             // goroutines for sharded machine stepping
	tracer    Tracer          // nil: tracing disabled (zero cost)
	timed     bool            // tracer != nil: take round timestamps
	meterDlv  bool            // compute per-round delivery counts (OnRound or Tracer set)

	parked  int // vertices parked awaiting delivery
	stepped int // vertices stepped since the last completed round
	senders int // senders routed in the current round (set by route)
	onRound func(RoundActivity)
	abort   error
	dirty   []*Ctx // vertices that stepped this round with sends queued
	woken   []*Ctx // parked vertices receiving records this round

	// Timing-channel scratch (tracer installed only): the previous round
	// boundary and the current round's accumulated routing/stepping time.
	lastTick time.Time
	routeNs  int64
	stepNs   int64
	// Delivery counters of the current round (meterDlv only), folded into
	// RoundActivity by recordRound.
	deliv     int
	delivBits int64

	ctxs  []*Ctx
	stats Stats
}

// checkConfig validates the parts of cfg every runner depends on.
func checkConfig(cfg Config) error {
	if cfg.Graph == nil {
		return errors.New("dist: Config.Graph is nil")
	}
	if n := cfg.Graph.N(); cfg.CutSide != nil && len(cfg.CutSide) != n {
		return fmt.Errorf("dist: CutSide has %d entries for %d vertices", len(cfg.CutSide), n)
	}
	return nil
}

// newEngine validates cfg and builds the shared engine state. A nil
// engine with a nil error means the run is trivially empty (n == 0).
func newEngine(cfg Config) (*engine, error) {
	if err := checkConfig(cfg); err != nil {
		return nil, err
	}
	n := cfg.Graph.N()
	if n == 0 {
		return nil, nil
	}
	procs := runtime.GOMAXPROCS(0)
	e := &engine{
		g:         cfg.Graph,
		n:         n,
		bandwidth: cfg.Bandwidth,
		enforce:   cfg.Enforce,
		maxRounds: cfg.MaxRounds,
		cut:       cfg.CutSide,
		cancel:    cfg.Cancel,
		routePar:  procs,
		stepPar:   procs,
		onRound:   cfg.OnRound,
		tracer:    cfg.Tracer,
		timed:     cfg.Tracer != nil,
		meterDlv:  cfg.OnRound != nil || cfg.Tracer != nil,
	}
	if e.maxRounds <= 0 {
		e.maxRounds = DefaultMaxRounds
	}
	e.ctxs = make([]*Ctx, n)
	for v := 0; v < n; v++ {
		e.ctxs[v] = newCtx(cfg.Graph, v, cfg.Seed)
	}
	return e, nil
}

// RunMachines executes one Machine per vertex of cfg.Graph as a
// synchronous message-passing protocol and returns the metered
// statistics. factory is called once per vertex, sequentially in id
// order. It returns an error when the round limit is exceeded, when
// cfg.Cancel fires, when a machine panics, or, with cfg.Enforce set,
// when any directed edge carries more than cfg.Bandwidth bits in one
// round.
func RunMachines(cfg Config, factory func(*Ctx) Machine) (*Stats, error) {
	if cfg.Shards > 0 {
		return runSharded(cfg, factory)
	}
	e, err := newEngine(cfg)
	if err != nil {
		return nil, err
	}
	if e == nil {
		return &Stats{}, nil
	}
	machines := make([]Machine, e.n)
	for v := 0; v < e.n; v++ {
		machines[v] = factory(e.ctxs[v])
	}
	if e.timed {
		// Machine construction is setup, not round 1.
		e.lastTick = time.Now()
	}
	e.runStep(machines)
	if e.abort != nil {
		return nil, e.abort
	}
	s := e.stats
	return &s, nil
}

// vertexPanicError converts a recovered machine panic into the run error.
func vertexPanicError(id int, r any) error {
	return fmt.Errorf("dist: vertex %d panicked: %v\n%s", id, r, debug.Stack())
}

// roundLimitError builds the ErrRoundLimit abort after rounds completed
// rounds.
func roundLimitError(rounds, maxRounds int) error {
	return fmt.Errorf("%w: %d rounds executed (MaxRounds %d)", ErrRoundLimit, rounds, maxRounds)
}

// cancelError builds the ErrCanceled abort after rounds completed rounds.
func cancelError(rounds int) error {
	return fmt.Errorf("%w after %d rounds", ErrCanceled, rounds)
}

// bandwidthError builds the ErrBandwidth abort for the first violating
// edge of a round.
func bandwidthError(from, bits, to, round, budget int) error {
	return fmt.Errorf("%w: vertex %d sent %d bits to %d in round %d (budget %d)",
		ErrBandwidth, from, bits, to, round, budget)
}

// canceled reports whether a cancel channel has fired. Non-blocking and
// nil-safe; checked at round boundaries like the round limit.
func canceled(cancel <-chan struct{}) bool {
	if cancel == nil {
		return false
	}
	select {
	case <-cancel:
		return true
	default:
		return false
	}
}

// recordRound folds the completed round's activity into Stats and fires
// the OnRound hook and the tracer's Phase/RoundTime calls: Active counts
// the vertices stepped since the previous completion, Parked the
// vertices still parked after this round's deliveries,
// Delivered/DeliveredBits the records routing just placed in live
// inboxes (computed only when OnRound or Tracer is set).
func (e *engine) recordRound() {
	act := RoundActivity{
		Round: e.stats.Rounds, Active: e.stepped, Parked: e.parked, Senders: e.senders,
		Delivered: e.deliv, DeliveredBits: e.delivBits,
	}
	e.stats.ActiveSteps += int64(act.Active)
	e.stats.ParkedSteps += int64(act.Parked)
	if act.Active > e.stats.PeakActive {
		e.stats.PeakActive = act.Active
	}
	e.stepped = 0
	e.senders = 0
	e.deliv, e.delivBits = 0, 0
	if e.tracer != nil {
		e.tracer.Phase(act)
		e.traceRoundTime(act.Round)
	}
	if e.onRound != nil {
		e.onRound(act)
	}
	if e.timed {
		// Hook and tracer time belongs to neither round: re-arm the
		// boundary timestamp after the callbacks return.
		e.lastTick = time.Now()
	}
}

// meterResult is the per-sender accounting of one round, computed
// independently per sender so the work can be sharded.
type meterResult struct {
	msgs, bits, cut int64
	maxMsg, maxEdge int
	viol            int64
	violTo          int // receiver of this sender's first violation, -1 if none
	violBits        int
}

// routeTimed aggregates statistics and delivers all outboxes, timing
// the pass for the tracer's timing channel when one is installed. The
// logical work lives in route.
func (e *engine) routeTimed() {
	if !e.timed {
		e.route()
		return
	}
	t0 := time.Now()
	e.route()
	e.routeNs += int64(time.Since(t0))
}

// route aggregates statistics and delivers all outboxes. The dirty list
// holds exactly the vertices that queued sends this round; it is sorted
// by vertex id so inboxes arrive sorted by sender and every statistic is
// deterministic regardless of how steps were sharded. Senders are
// metered independently (in parallel for large rounds). Parked receivers
// of a delivery are flipped awake and collected in e.woken. With a
// tracer installed, the serial delivery loop is also where
// Send/Deliver/Wake events are emitted — senders in ascending id, a
// sender's records in send order — which is what makes the logical
// transcript deterministic.
func (e *engine) route() {
	senders := e.dirty
	e.dirty = e.dirty[:0]
	e.senders = len(senders)
	if len(senders) == 0 {
		return
	}
	sort.Slice(senders, func(i, j int) bool { return senders[i].id < senders[j].id })
	results := make([]meterResult, len(senders))
	if e.routePar > 1 && len(senders) >= 64 {
		var wg sync.WaitGroup
		shard := (len(senders) + e.routePar - 1) / e.routePar
		for lo := 0; lo < len(senders); lo += shard {
			hi := lo + shard
			if hi > len(senders) {
				hi = len(senders)
			}
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				for i := lo; i < hi; i++ {
					results[i] = e.meterSender(senders[i])
				}
			}(lo, hi)
		}
		wg.Wait()
	} else {
		for i, c := range senders {
			results[i] = e.meterSender(c)
		}
	}
	for i, c := range senders {
		r := &results[i]
		e.stats.Messages += r.msgs
		e.stats.TotalBits += r.bits
		e.stats.CutBits += r.cut
		if r.maxMsg > e.stats.MaxMessageBits {
			e.stats.MaxMessageBits = r.maxMsg
		}
		if r.maxEdge > e.stats.MaxEdgeRoundBits {
			e.stats.MaxEdgeRoundBits = r.maxEdge
		}
		if r.viol > 0 {
			e.stats.BandwidthViolations += r.viol
			if e.enforce && e.abort == nil {
				e.abort = bandwidthError(c.id, r.violBits, r.violTo, e.stats.Rounds, e.bandwidth)
			}
		}
		// Deliveries: copy the header and the packed int tail into the
		// receiver's arena. Senders are visited in ascending id and a
		// sender's records in send order, so the arena arrives sorted.
		for ri := range c.outRecs {
			o := &c.outRecs[ri]
			to := e.ctxs[o.to]
			if e.tracer != nil {
				e.tracer.Event(TraceEvent{Kind: TraceSend, Round: e.stats.Rounds, V: c.id, Peer: int(o.to), Tag: o.tag, Bits: int(o.bits)})
			}
			if to.done {
				continue
			}
			if e.meterDlv {
				e.deliv++
				e.delivBits += int64(o.bits)
				if e.tracer != nil {
					e.tracer.Event(TraceEvent{Kind: TraceDeliver, Round: e.stats.Rounds, V: int(o.to), Peer: c.id, Tag: o.tag, Bits: int(o.bits)})
				}
			}
			off := int32(len(to.inInts))
			if o.n > 0 {
				to.inInts = append(to.inInts, c.outInts[o.off:o.off+o.n]...)
			}
			to.inRecs = append(to.inRecs, InRec{
				From: c.id,
				Rec:  Rec{Tag: o.tag, Flag: o.flag, A: o.a, B: o.b, F0: o.f0, F1: o.f1, F2: o.f2},
				off:  off, n: o.n,
			})
			if to.parked {
				to.parked = false
				e.woken = append(e.woken, to)
				if e.tracer != nil {
					e.tracer.Event(TraceEvent{Kind: TraceWake, Round: e.stats.Rounds, V: int(o.to), Peer: c.id})
				}
			}
		}
		c.clearSends()
	}
}

// meterSender sizes one sender's round of messages: global aggregates plus
// the per-directed-edge accumulation behind MaxEdgeRoundBits and the
// bandwidth check. It touches only the sender's own state. Only the edge
// slots actually written this round are revisited (and re-zeroed), so the
// cost is O(#messages) rather than O(degree) — a vertex of degree Δ that
// pings one neighbor no longer pays a Δ-wide scan.
func (e *engine) meterSender(c *Ctx) meterResult {
	r := meterResult{violTo: -1}
	// Records carry their size from SendRec and their neighbor slot from
	// validation time: no interface call, no binary search.
	for ri := range c.outRecs {
		o := &c.outRecs[ri]
		b := int(o.bits)
		if b < 0 {
			b = 0
		}
		r.msgs++
		r.bits += int64(b)
		if b > r.maxMsg {
			r.maxMsg = b
		}
		if e.cut != nil && e.cut[c.id] != e.cut[o.to] {
			r.cut += int64(b)
		}
		i := int(o.nbrIdx)
		if b > 0 && c.edgeBits[i] == 0 {
			c.touched = append(c.touched, i)
		}
		c.edgeBits[i] += b
	}
	for _, i := range c.touched {
		eb := c.edgeBits[i]
		c.edgeBits[i] = 0
		if eb > r.maxEdge {
			r.maxEdge = eb
		}
		if e.bandwidth > 0 && eb > e.bandwidth {
			r.viol++
			if r.violTo < 0 {
				r.violTo = c.nbrs[i]
				r.violBits = eb
			}
		}
	}
	c.touched = c.touched[:0]
	return r
}
