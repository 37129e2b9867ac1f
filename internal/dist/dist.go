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
// The engine has two halves. The per-shard half (step.go) does what a
// round does to the vertices of one contiguous range: step the active
// machines, classify each step, meter and deliver the sends, build the
// next active set, and run the quiesce epilogue. The global half
// (round.go) holds Stats and takes the round decision — finish,
// quiesce, abort, or charge the round — from the shards' counts. A round
// is one scan over the active set, with machine steps and per-sender
// metering sharded across GOMAXPROCS goroutines when the round is
// large. Quiet (parked) vertices cost nothing, so a round costs
// O(#active + #senders), and there is no per-vertex goroutine or stack,
// which is what lets runs scale to millions of vertices on one box.
//
// RunMachines runs both halves on the caller's goroutine, with one shard
// over every vertex. Coordinate and ServeShard run the same halves
// apart: one shard per worker, and the global half on a coordinator that
// learns each round's counts over a transport (transport.go, coord.go,
// shard.go). How the vertices are split across workers is an execution
// detail, never an algorithm input: a distributed run reproduces the
// in-process run bit for bit.
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
	"runtime/debug"
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

// checkConfig validates the parts of cfg every runner depends on.
func checkConfig(cfg Config) error {
	if cfg.Graph == nil {
		return errors.New("dist: Config.Graph is nil")
	}
	return checkCut(cfg.CutSide, cfg.Graph.N())
}

// checkCut validates a two-party cut against the vertex count.
func checkCut(cut []bool, n int) error {
	if cut != nil && len(cut) != n {
		return fmt.Errorf("dist: CutSide has %d entries for %d vertices", len(cut), n)
	}
	return nil
}

// RunMachines executes one Machine per vertex of cfg.Graph as a
// synchronous message-passing protocol and returns the metered
// statistics. factory is called once per vertex, sequentially in id
// order. It returns an error when the round limit is exceeded, when
// cfg.Cancel fires, when a machine panics, or, with cfg.Enforce set,
// when any directed edge carries more than cfg.Bandwidth bits in one
// round.
func RunMachines(cfg Config, factory func(*Ctx) Machine) (*Stats, error) {
	if err := checkConfig(cfg); err != nil {
		return nil, err
	}
	if cfg.Graph.N() == 0 {
		return &Stats{}, nil
	}
	g, s := newInProcess(cfg, factory)
	if err := runStep(g, s); err != nil {
		return nil, err
	}
	st := g.stats
	return &st, nil
}

// newInProcess builds the two halves of an in-process run over a
// validated, non-empty cfg: the global half and one shard over every
// vertex. The timing channel is armed only when a tracer is installed.
func newInProcess(cfg Config, factory func(*Ctx) Machine) (*global, *shard) {
	g := newGlobal(cfg)
	s := newShard(cfg.Graph, cfg.Seed, 0, cfg.Graph.N(), factory, cfg.Bandwidth, cfg.CutSide, cfg.Tracer)
	if cfg.Tracer != nil {
		// Only the in-process run has a timing channel. Machine
		// construction is setup, not round 1.
		g.timed, g.lastTick = true, time.Now()
	}
	return g, s
}

// runStep drives the in-process run — one shard over every vertex — to
// completion: each round the shard steps its active machines and
// classifies them, the global half decides, and route commits the
// round's sends.
func runStep(g *global, s *shard) error {
	for {
		g.timeInto(&g.stepNs, s.step)
		if s.abort != nil {
			return s.abort
		}
		stepped := len(s.active)
		s.classify()
		kind, round, err := g.decide(s.done, len(s.yielded), s.flushWakes)
		if err != nil {
			return err
		}
		senders := len(s.dirty)
		if err := route(g, s, round); err != nil {
			return err
		}
		switch kind {
		case DecideFinish:
			return nil
		case DecideQuiesce:
			s.quiesce()
			return s.abort
		}
		g.record(RoundActivity{
			Round: round, Active: stepped, Parked: s.parked, Senders: senders,
			Delivered: s.deliv, DeliveredBits: s.delivBits,
		})
		s.advance()
	}
}

// route meters the round's sends, delivers them stamped with round, and
// charges the metering — the routing share of the timing channel. On a
// finish or quiesce every pending receiver has retired, so delivering
// drops them.
func route(g *global, s *shard, round int) error {
	var m MeterReport
	g.timeInto(&g.routeNs, func() {
		m = s.meter()
		s.round = round
		s.flush()
	})
	return g.charge(&m, round)
}

// flushWakes reports whether any queued send targets a vertex that is still
// alive — whether committing the sends would be observable as a round (a
// parked receiver would wake). Only a shard over every vertex can tell;
// a sharded worker reports its part in a WakeFrame.
func (s *shard) flushWakes() bool {
	for _, c := range s.dirty {
		for ri := range c.outRecs {
			if !s.ctxs[c.outRecs[ri].to].done {
				return true
			}
		}
	}
	return false
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
