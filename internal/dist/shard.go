package dist

import "fmt"

// The worker half of the sharded runner: ServeShard owns one contiguous
// vertex range of a contiguous partition and runs it as one shard of the
// engine (step.go), exactly as the in-process run does, except that the
// global half (round.go) lives on the coordinator (coord.go). Each
// iteration the worker asks for the round's outcome over frames:
//
//	step, classify, meter     → report counts, metering, outbound batches (FrameRound)
//	receive inbound batches   (FrameBatches)
//	scan pending deliveries   → would any reach a live vertex? (FrameWake)
//	receive the decision      (FrameDecision)
//	  Commit r  → deliver in global sender order, advance
//	  Quiesce   → commit the last words, run the parked epilogue
//	  Finish    → commit the last words
//	  Abort     → discard everything
//
// Delivery order: source shards in index order, with the worker's own
// senders (ascending id) at its own position — with a contiguous
// partition that is the in-process run's global ascending-sender order,
// so per-vertex trace transcripts and inbox order come out identical.

// shardRecorder buffers the worker's per-vertex trace events for the
// ResultFrame. Phase snapshots are emitted by the coordinator (it owns
// the global activity counts) and the timing channel does not exist on
// the sharded path.
type shardRecorder struct {
	lo     int
	events [][]TraceEvent
}

func (r *shardRecorder) Event(ev TraceEvent) {
	r.events[ev.V-r.lo] = append(r.events[ev.V-r.lo], ev)
}

func (r *shardRecorder) Phase(RoundActivity)   {}
func (r *shardRecorder) RoundTime(RoundTiming) {}

// shardWorker is the state of one ServeShard call.
type shardWorker struct {
	wt      WorkerTransport
	s       *shard
	index   int // this worker's shard index
	workers int
	cuts    []int

	// wakeStamp/iterNo implement the dry wake scan's distinct-target
	// counting without mutating vertex state.
	wakeStamp []int
	iterNo    int

	rec     *shardRecorder
	collect bool
	output  func(v int) []int
}

// ServeShard runs one worker: receive the setup frame, resolve the
// program, and speak the round protocol until the coordinator's final
// decision. It returns nil on a clean run or a coordinator-initiated
// abort, and an error for local failures (which are also reported to the
// coordinator through the protocol so the whole run aborts cleanly).
func ServeShard(wt WorkerTransport, resolve ProgramResolver) error {
	defer wt.Close()
	f, err := wt.Receive()
	if err != nil {
		return err
	}
	if f.Type != FrameSetup || f.Setup == nil {
		return fmt.Errorf("%w: expected setup frame, got type %d", ErrTransport, f.Type)
	}
	su := f.Setup
	w, err := newShardWorker(wt, su, resolve)
	if err != nil {
		return failWorker(wt, err)
	}
	return w.run()
}

// failWorker reports a worker-side failure — at setup, or a machine
// panic — through the protocol: the coordinator is waiting for a
// RoundFrame, so the error rides one; the worker then drains to the
// abort decision and ships a final ResultFrame carrying the same error.
func failWorker(wt WorkerTransport, cause error) error {
	rf := &RoundFrame{Err: cause.Error(), Meter: MeterReport{ViolSender: -1}}
	if err := wt.Send(&Frame{Type: FrameRound, Round: rf}); err != nil {
		return cause
	}
	drainToAbort(wt)
	wt.Send(&Frame{Type: FrameResult, Result: &ResultFrame{Err: cause.Error()}})
	return cause
}

// drainToAbort consumes frames until the coordinator's abort decision
// (or a transport failure), keeping the two sides in lockstep.
func drainToAbort(wt WorkerTransport) {
	for {
		f, err := wt.Receive()
		if err != nil {
			return
		}
		if f.Type == FrameDecision && f.Decision != nil && f.Decision.Kind == DecideAbort {
			return
		}
	}
}

func newShardWorker(wt WorkerTransport, su *SetupFrame, resolve ProgramResolver) (*shardWorker, error) {
	if su.Graph == nil {
		return nil, fmt.Errorf("%w: setup frame without a graph", ErrTransport)
	}
	n := su.Graph.N()
	if su.Workers < 1 || su.Shard < 0 || su.Shard >= su.Workers {
		return nil, fmt.Errorf("%w: shard %d of %d workers", ErrTransport, su.Shard, su.Workers)
	}
	if len(su.Cuts) != su.Workers+1 || su.Cuts[0] != 0 || su.Cuts[su.Workers] != n {
		return nil, fmt.Errorf("%w: malformed partition (cuts %v over %d vertices)", ErrTransport, su.Cuts, n)
	}
	for i := 0; i < su.Workers; i++ {
		if su.Cuts[i] > su.Cuts[i+1] {
			return nil, fmt.Errorf("%w: partition not ascending at shard %d", ErrTransport, i)
		}
	}
	if err := checkCut(su.Cut, n); err != nil {
		return nil, err
	}
	prog, err := resolve(su.Algo, su.Graph, su.Seed)
	if err != nil {
		return nil, err
	}
	if prog.Factory == nil {
		return nil, fmt.Errorf("dist: program %q resolved without a machine factory", su.Algo)
	}
	g := su.Graph
	if prog.Graph != nil {
		if prog.Graph.N() != n {
			return nil, fmt.Errorf("dist: program graph has %d vertices, setup graph %d", prog.Graph.N(), n)
		}
		g = prog.Graph
	}
	lo, hi := su.Cuts[su.Shard], su.Cuts[su.Shard+1]
	var rec *shardRecorder
	var tr Tracer
	if su.Trace {
		rec = &shardRecorder{lo: lo, events: make([][]TraceEvent, hi-lo)}
		tr = rec
	}
	return &shardWorker{
		wt: wt, index: su.Shard, workers: su.Workers, cuts: su.Cuts,
		s:         newShard(g, su.Seed, lo, hi, prog.Factory, su.Bandwidth, su.Cut, tr),
		wakeStamp: make([]int, hi-lo),
		rec:       rec,
		collect:   su.Collect,
		output:    prog.Output,
	}, nil
}

// run is the worker's protocol loop.
func (w *shardWorker) run() error {
	s := w.s
	for {
		s.step()
		if s.abort != nil {
			return failWorker(w.wt, s.abort)
		}
		if err := w.wt.Send(&Frame{Type: FrameRound, Round: w.report()}); err != nil {
			return err
		}
		f, err := w.wt.Receive()
		if err != nil {
			return err
		}
		var in []RecBatch
		switch {
		case f.Type == FrameBatches && f.Batches != nil:
			in = f.Batches.In
		case f.Type == FrameDecision && f.Decision != nil && f.Decision.Kind == DecideAbort:
			s.discard()
			return w.sendAbortResult()
		default:
			return fmt.Errorf("%w: expected batches frame, got type %d", ErrTransport, f.Type)
		}
		if err := w.checkBatches(in); err != nil {
			return err
		}
		if err := w.wt.Send(&Frame{Type: FrameWake, Wake: w.wakeScan(in)}); err != nil {
			return err
		}
		f, err = w.wt.Receive()
		if err != nil {
			return err
		}
		if f.Type != FrameDecision || f.Decision == nil {
			return fmt.Errorf("%w: expected decision frame, got type %d", ErrTransport, f.Type)
		}
		switch d := f.Decision; d.Kind {
		case DecideCommit:
			s.round = d.Round
			w.apply(in)
			s.advance()
		case DecideQuiesce:
			s.flush()
			s.quiesce()
			return w.sendResult(s.abort)
		case DecideFinish:
			s.flush()
			return w.sendResult(nil)
		case DecideAbort:
			s.discard()
			return w.sendAbortResult()
		default:
			return fmt.Errorf("%w: unknown decision kind %d", ErrTransport, d.Kind)
		}
	}
}

// report classifies the round's steps and builds the shard's report:
// the classification counts, the metering (round-independent, so it can
// precede the coordinator's decision), and the cross-shard batches.
func (w *shardWorker) report() *RoundFrame {
	s := w.s
	rf := &RoundFrame{Stepped: len(s.active)}
	s.classify()
	rf.Yielded, rf.ParkedNow, rf.DoneTotal, rf.Senders = len(s.yielded), s.parked, s.done, len(s.dirty)
	rf.Meter = s.meter()
	rf.Out = make([]RecBatch, w.workers)
	for _, c := range s.dirty {
		for ri := range c.outRecs {
			o := &c.outRecs[ri]
			if dst := shardOf(w.cuts, int(o.to)); dst != w.index {
				rf.Out[dst].add(c.id, o, c.outInts[o.off:o.off+o.n])
			}
		}
	}
	return rf
}

// checkBatches rejects inbound batches that do not fit the partition: a
// record must come from a sender of its source shard and go to a vertex
// of this one. The wire decoder cannot check this (it does not know the
// partition), and a stray receiver would index vertex state this worker
// does not hold.
func (w *shardWorker) checkBatches(in []RecBatch) error {
	if len(in) != w.workers {
		return fmt.Errorf("%w: batches frame with %d shards, want %d", ErrTransport, len(in), w.workers)
	}
	for src := range in {
		for ri := range in[src].Recs {
			br := &in[src].Recs[ri]
			if from := int(br.From); !w.s.owns(int(br.To)) || from < w.cuts[src] || from >= w.cuts[src+1] {
				return fmt.Errorf("%w: batch from shard %d carries a record %d -> %d outside the partition", ErrTransport, src, br.From, br.To)
			}
		}
	}
	return nil
}

// wakeScan is the worker's part of the quiesce test plus the delivery
// counters: scan every pending delivery into this shard — own-local
// sends still sitting in the sender arenas plus the inbound batches —
// without applying anything.
func (w *shardWorker) wakeScan(in []RecBatch) *WakeFrame {
	w.iterNo++
	wf := &WakeFrame{}
	scan := func(to int, bits int64) {
		c := w.s.ctxs[to]
		if c.done {
			return
		}
		wf.WouldWake = true
		wf.Delivered++
		wf.DeliveredBits += bits
		if c.parked && w.wakeStamp[to-w.s.lo] != w.iterNo {
			w.wakeStamp[to-w.s.lo] = w.iterNo
			wf.Woken++
		}
	}
	for _, c := range w.s.dirty {
		for ri := range c.outRecs {
			if o := &c.outRecs[ri]; w.s.owns(int(o.to)) {
				scan(int(o.to), o.bits)
			}
		}
	}
	for src := range in {
		if src == w.index {
			continue
		}
		for ri := range in[src].Recs {
			scan(int(in[src].Recs[ri].To), in[src].Recs[ri].Bits)
		}
	}
	return wf
}

// apply delivers a committed round in global ascending-sender order:
// source shards in index order, this shard's own senders at its own
// position.
func (w *shardWorker) apply(in []RecBatch) {
	for src := range in {
		if src == w.index {
			w.s.flush()
			continue
		}
		b := &in[src]
		for ri := range b.Recs {
			br := &b.Recs[ri]
			w.s.deliver(int(br.From), int(br.To), Rec{Tag: br.Tag, Flag: br.Flag, A: br.A, B: br.B, F0: br.F0, F1: br.F1, F2: br.F2}, br.Bits, b.Ints[br.Off:br.Off+br.N])
		}
	}
}

// sendAbortResult acknowledges a coordinator-initiated abort with an
// empty result frame: the run did not finish, so no outputs or events
// ship.
func (w *shardWorker) sendAbortResult() error {
	return w.wt.Send(&Frame{Type: FrameResult, Result: &ResultFrame{}})
}

// sendResult ships the shard's final frame: per-vertex outputs (when
// collecting), the buffered trace events, and any epilogue error.
func (w *shardWorker) sendResult(cause error) error {
	res := &ResultFrame{}
	if cause != nil {
		res.Err = cause.Error()
	} else {
		if w.collect && w.output != nil {
			res.Outputs = make([][]int, w.s.hi-w.s.lo)
			for v := w.s.lo; v < w.s.hi; v++ {
				res.Outputs[v-w.s.lo] = w.output(v)
			}
		}
		if w.rec != nil {
			res.Events = w.rec.events
		}
	}
	if err := w.wt.Send(&Frame{Type: FrameResult, Result: res}); err != nil {
		if cause != nil {
			return cause
		}
		return err
	}
	return cause
}
