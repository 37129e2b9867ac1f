package dist

import (
	"errors"
	"fmt"

	"distspanner/internal/graph"
)

// The coordinator half of the sharded runner: Coordinate runs the
// engine's global half (round.go) over the workers' reports. Each
// iteration it gathers every shard's round report, relays the
// cross-shard batches, gathers the wake scans, and hands the sums to the
// same decide/charge/record calls the in-process run makes — so a
// distributed run is indistinguishable from an in-process RunMachines
// run: same Stats, same per-vertex trace digests, same errors. Everything
// per-vertex stays on the workers (shard.go).

// ShardError is a worker-side failure (machine panic,
// program resolution) surfaced through the protocol; the coordinator
// aborts the run and returns it.
type ShardError struct {
	Shard int
	Msg   string
}

func (e *ShardError) Error() string { return fmt.Sprintf("dist: shard %d: %s", e.Shard, e.Msg) }

// CoordConfig configures a Coordinate run. The engine-semantics fields
// (Graph, Seed, Bandwidth, Enforce, MaxRounds, CutSide, OnRound, Cancel,
// Tracer) mean exactly what they mean on Config.
type CoordConfig struct {
	Graph     *graph.Graph
	Seed      int64
	Algo      string
	Bandwidth int
	Enforce   bool
	MaxRounds int
	CutSide   []bool
	OnRound   func(RoundActivity)
	Cancel    <-chan struct{}
	// Tracer receives the run's logical transcript: Phase snapshots live
	// at each committed round, per-vertex events replayed in vertex-major
	// order after the run completes (workers buffer them). The timing
	// channel (RoundTime) does not exist on the sharded path.
	Tracer Tracer
	// Collect asks workers to ship per-vertex program outputs, merged
	// into CoordResult.Outputs.
	Collect bool
}

// CoordResult is a completed distributed run.
type CoordResult struct {
	Stats Stats
	// Outputs is the per-vertex program output (Collect only; nil
	// entries for vertices whose program produced none).
	Outputs [][]int
}

// Coordinate drives one distributed run over the workers connected by
// ct: it partitions the graph contiguously, ships setup frames, runs
// the round/quiescence protocol, and merges Stats, activity, outputs,
// and trace events. On any abort — including a transport failure — it
// drains every worker's final frame (best effort) so no worker is left
// mid-protocol, and replays nothing into the tracer: a failed run's
// transcript contains no partial round.
func Coordinate(ct CoordTransport, cfg CoordConfig) (*CoordResult, error) {
	if cfg.Graph == nil {
		return nil, errors.New("dist: CoordConfig.Graph is nil")
	}
	n := cfg.Graph.N()
	if err := checkCut(cfg.CutSide, n); err != nil {
		return nil, err
	}
	w := ct.Workers()
	if w < 1 {
		return nil, errors.New("dist: Coordinate needs at least one worker")
	}
	cuts := PartitionEven(n, w)
	trace := cfg.Tracer != nil
	for i := 0; i < w; i++ {
		su := &SetupFrame{
			Shard: i, Workers: w, Cuts: cuts, Graph: cfg.Graph,
			Algo: cfg.Algo, Seed: cfg.Seed, Bandwidth: cfg.Bandwidth,
			Cut: cfg.CutSide, Trace: trace, Collect: cfg.Collect,
		}
		if err := ct.Send(i, &Frame{Type: FrameSetup, Setup: su}); err != nil {
			return nil, fmt.Errorf("%w: setup to worker %d: %v", ErrTransport, i, err)
		}
	}

	g := newGlobal(Config{
		Graph: cfg.Graph, Bandwidth: cfg.Bandwidth, Enforce: cfg.Enforce,
		MaxRounds: cfg.MaxRounds, OnRound: cfg.OnRound, Cancel: cfg.Cancel, Tracer: cfg.Tracer,
	})
	var (
		runErr  error
		reports = make([]*RoundFrame, w)
		wakes   = make([]*WakeFrame, w)
	)
	// fail records the run's error and best-effort ships the abort
	// decision to every worker, so they stop waiting for batches or
	// decisions and send their final frame.
	fail := func(err error) {
		runErr = err
		d := &DecisionFrame{Kind: DecideAbort, Round: g.stats.Rounds}
		for i := 0; i < w; i++ {
			ct.Send(i, &Frame{Type: FrameDecision, Decision: d})
		}
	}
	// send ships one decision, stamped with its round, to every worker.
	send := func(kind DecisionKind, round int) error {
		d := &DecisionFrame{Kind: kind, Round: round}
		for i := 0; i < w; i++ {
			if err := ct.Send(i, &Frame{Type: FrameDecision, Decision: d}); err != nil {
				return fmt.Errorf("%w: decision to worker %d: %v", ErrTransport, i, err)
			}
		}
		return nil
	}

protocol:
	for {
		// Phase 1: gather every shard's classification/metering report.
		for i := 0; i < w; i++ {
			f, err := ct.Receive(i)
			if err != nil {
				fail(fmt.Errorf("%w: round report from worker %d: %v", ErrTransport, i, err))
				break protocol
			}
			if f.Type != FrameRound || f.Round == nil {
				fail(fmt.Errorf("%w: expected round frame from worker %d, got type %d", ErrTransport, i, f.Type))
				break protocol
			}
			reports[i] = f.Round
		}
		for i, r := range reports {
			if r.Err != "" {
				fail(&ShardError{Shard: i, Msg: r.Err})
				break protocol
			}
		}
		// Relay: worker d's inbound view is column d of the report matrix.
		for d := 0; d < w; d++ {
			bf := &BatchesFrame{In: make([]RecBatch, w)}
			for s := 0; s < w; s++ {
				if s == d || reports[s].Out == nil {
					continue
				}
				bf.In[s] = reports[s].Out[d]
			}
			if err := ct.Send(d, &Frame{Type: FrameBatches, Batches: bf}); err != nil {
				fail(fmt.Errorf("%w: batches to worker %d: %v", ErrTransport, d, err))
				break protocol
			}
		}
		// Phase 2: gather the dry wake scans.
		for i := 0; i < w; i++ {
			f, err := ct.Receive(i)
			if err != nil {
				fail(fmt.Errorf("%w: wake report from worker %d: %v", ErrTransport, i, err))
				break protocol
			}
			if f.Type != FrameWake || f.Wake == nil {
				fail(fmt.Errorf("%w: expected wake frame from worker %d, got type %d", ErrTransport, i, f.Type))
				break protocol
			}
			wakes[i] = f.Wake
		}

		// Sum the shards' reports — ascending vertex ranges in index
		// order, so the merged metering keeps the global first violator —
		// and decide.
		var act RoundActivity
		var yielded, done int
		anyWake := false
		meter := MeterReport{ViolSender: -1}
		for i, r := range reports {
			wk := wakes[i]
			act.Active += r.Stepped
			act.Parked += r.ParkedNow - wk.Woken
			act.Senders += r.Senders
			act.Delivered += wk.Delivered
			act.DeliveredBits += wk.DeliveredBits
			yielded += r.Yielded
			done += r.DoneTotal
			anyWake = anyWake || wk.WouldWake
			meter.add(&r.Meter)
		}
		kind, round, err := g.decide(done, yielded, func() bool { return anyWake })
		if err == nil {
			err = g.charge(&meter, round)
		}
		if err != nil {
			fail(err)
			break
		}
		if kind == DecideCommit {
			act.Round = round
			g.record(act)
		}
		if err := send(kind, round); err != nil {
			fail(err)
			break
		}
		if kind != DecideCommit {
			break
		}
	}

	// Drain one final frame per worker — on success and on abort alike —
	// so no worker is ever left blocked mid-send.
	var outputs [][]int
	if cfg.Collect {
		outputs = make([][]int, n)
	}
	var events [][]TraceEvent
	if trace {
		events = make([][]TraceEvent, n)
	}
	for i := 0; i < w; i++ {
		f, err := ct.Receive(i)
		if err != nil {
			if runErr == nil {
				runErr = fmt.Errorf("%w: result from worker %d: %v", ErrTransport, i, err)
			}
			continue
		}
		if f.Type != FrameResult || f.Result == nil {
			if runErr == nil {
				runErr = fmt.Errorf("%w: expected result frame from worker %d, got type %d", ErrTransport, i, f.Type)
			}
			continue
		}
		res := f.Result
		if res.Err != "" && runErr == nil {
			runErr = &ShardError{Shard: i, Msg: res.Err}
		}
		lo, hi := cuts[i], cuts[i+1]
		if outputs != nil && len(res.Outputs) == hi-lo {
			copy(outputs[lo:hi], res.Outputs)
		}
		if events != nil && len(res.Events) == hi-lo {
			copy(events[lo:hi], res.Events)
		}
	}
	if runErr != nil {
		return nil, runErr
	}
	if trace {
		// Replay the buffered per-vertex transcripts vertex-major. Each
		// vertex's order is exactly what the worker emitted; cross-vertex
		// interleaving is unobservable by contract (trace.go).
		for v := 0; v < n; v++ {
			for _, ev := range events[v] {
				cfg.Tracer.Event(ev)
			}
		}
	}
	return &CoordResult{Stats: g.stats, Outputs: outputs}, nil
}
