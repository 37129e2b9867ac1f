package dist

import (
	"runtime"
	"sort"
	"sync"

	"distspanner/internal/graph"
)

// The per-shard half of the engine: everything a round does to the
// vertices of one contiguous range [lo, hi) — stepping their machines,
// classifying what each step asked for, metering their sends, delivering
// records into their inboxes, building the next active set, and the
// quiesce epilogue. The in-process run (dist.go) is one shard over
// [0, n); a sharded worker (shard.go) is one shard over its part of the
// partition. The two drive the same code and differ only in how they
// learn a round's outcome from the global half (round.go): directly, or
// from a coordinator over frames.
//
// Concurrency: a shard is driven by one goroutine. Machine steps and
// per-sender metering are sharded across GOMAXPROCS helper goroutines
// when the round is large — safe because a step writes only its own
// vertex's Ctx arenas and status slot, and metering writes only the
// sender's own scratch.

// shard is the per-shard half of the engine.
type shard struct {
	lo, hi    int
	ctxs      []*Ctx // by vertex id; nil outside [lo, hi)
	machines  []Machine
	status    []StepStatus
	ins       []StepIn
	bandwidth int
	cut       []bool
	par       int    // goroutines for sharded stepping and metering
	tracer    Tracer // nil: tracing disabled (zero cost)

	// Per-chunk scratch of the sharded step and meter passes (len par):
	// each chunk's first panic and merged metering.
	chunkErr   []error
	chunkMeter []MeterReport

	active  []*Ctx // vertices stepped this round
	yielded []*Ctx // stepped vertices that asked for the next round
	dirty   []*Ctx // stepped vertices with queued sends, ascending id after classify
	woken   []*Ctx // parked vertices this round's deliveries woke
	parked  int    // vertices parked awaiting a delivery
	done    int    // retired vertices

	// round is the last completed round: the stamp of trace events.
	round int
	// deliv/delivBits count the records delivered into live inboxes
	// since the last advance.
	deliv     int
	delivBits int64
	// abort is the first machine panic, as the run's error.
	abort error
}

// newShard builds the Ctx and machine of every vertex in [lo, hi),
// calling factory sequentially in id order; every vertex is active for
// its first step.
func newShard(g *graph.Graph, seed int64, lo, hi int, factory func(*Ctx) Machine, bandwidth int, cut []bool, tracer Tracer) *shard {
	n, par := g.N(), runtime.GOMAXPROCS(0)
	s := &shard{
		lo: lo, hi: hi,
		ctxs:       make([]*Ctx, n),
		machines:   make([]Machine, n),
		status:     make([]StepStatus, n),
		ins:        make([]StepIn, n),
		bandwidth:  bandwidth,
		cut:        cut,
		par:        par,
		tracer:     tracer,
		chunkErr:   make([]error, par),
		chunkMeter: make([]MeterReport, par),
		active:     make([]*Ctx, 0, hi-lo),
	}
	for v := lo; v < hi; v++ {
		c := newCtx(g, v, seed)
		s.ctxs[v] = c
		s.machines[v] = factory(c)
		s.ins[v] = StepIn{Start: true}
		s.active = append(s.active, c)
	}
	return s
}

// owns reports whether vertex v is in the shard's range.
func (s *shard) owns(v int) bool { return v >= s.lo && v < s.hi }

// parallelThreshold is the work-list size (active vertices, senders)
// below which a round is processed serially: sharding overhead
// dominates under it.
const parallelThreshold = 64

// forChunks splits [0, n) into at most s.par contiguous chunks, runs
// body(i, lo, hi) for chunk i on its own goroutine, waits for all of
// them, and returns the number of chunks.
func (s *shard) forChunks(n int, body func(i, lo, hi int)) int {
	size := (n + s.par - 1) / s.par
	var wg sync.WaitGroup
	chunks := 0
	for lo := 0; lo < n; lo += size {
		wg.Add(1)
		go func(i, lo, hi int) {
			defer wg.Done()
			body(i, lo, hi)
		}(chunks, lo, min(lo+size, n))
		chunks++
	}
	wg.Wait()
	return chunks
}

// step steps every active machine, serially for small active sets and
// sharded across goroutines for large ones. Each chunk writes only its
// own vertices' status slots and Ctx arenas, so no locking is needed;
// the first panic in active-set order becomes s.abort (a panic ends the
// run, so chunkErr is all nil again whenever a round starts).
func (s *shard) step() {
	if s.par <= 1 || len(s.active) < parallelThreshold {
		for _, c := range s.active {
			st, err := stepSafe(s.machines[c.id], c, s.ins[c.id])
			s.status[c.id] = st
			if err != nil {
				s.abort = err
				return
			}
		}
		return
	}
	chunks := s.forChunks(len(s.active), func(i, lo, hi int) {
		for _, c := range s.active[lo:hi] {
			st, err := stepSafe(s.machines[c.id], c, s.ins[c.id])
			s.status[c.id] = st
			if err != nil && s.chunkErr[i] == nil {
				s.chunkErr[i] = err
			}
		}
	})
	for _, err := range s.chunkErr[:chunks] {
		if err != nil {
			s.abort = err
			return
		}
	}
}

// stepSafe runs one machine step, converting a panic into the run's
// abort error.
func stepSafe(m Machine, c *Ctx, in StepIn) (st StepStatus, err error) {
	defer func() {
		if r := recover(); r != nil {
			st, err = StepDone, vertexPanicError(c.id, r)
		}
	}()
	return m.Step(c, in), nil
}

// classify files every vertex stepped this round by what its step
// returned: yielded, parked, or retired, with a Park or Retire trace
// event. Whatever a vertex queued is committed by its step — a retiring
// vertex's sends are its last words — so every stepped vertex with
// queued sends joins the dirty list, which is left sorted by id:
// senders are metered and delivered in ascending id, which is what
// makes every statistic and inbox order independent of the sharding.
func (s *shard) classify() {
	s.yielded = s.yielded[:0]
	for _, c := range s.active {
		switch s.status[c.id] {
		case StepYield:
			s.yielded = append(s.yielded, c)
		case StepPark:
			c.parked = true
			s.traceBlocked(TracePark, c.id)
			s.parked++
		case StepDone:
			c.done = true
			s.traceBlocked(TraceRetire, c.id)
			s.done++
		default:
			continue
		}
		if c.hasSends() {
			s.dirty = append(s.dirty, c)
		}
	}
	if len(s.dirty) > 1 {
		sort.Slice(s.dirty, func(i, j int) bool { return s.dirty[i].id < s.dirty[j].id })
	}
}

// meter sizes the round's queued sends, sender by sender (in parallel
// for many senders), and merges the results in ascending sender order.
// It reads only the senders' own state and does not depend on the round
// number, so a worker can meter before the coordinator has decided.
func (s *shard) meter() MeterReport {
	m := MeterReport{ViolSender: -1}
	if s.par <= 1 || len(s.dirty) < parallelThreshold {
		for _, c := range s.dirty {
			r := s.meterSender(c)
			m.add(&r)
		}
		return m
	}
	chunks := s.forChunks(len(s.dirty), func(i, lo, hi int) {
		acc := MeterReport{ViolSender: -1}
		for _, c := range s.dirty[lo:hi] {
			r := s.meterSender(c)
			acc.add(&r)
		}
		s.chunkMeter[i] = acc
	})
	for i := range s.chunkMeter[:chunks] {
		m.add(&s.chunkMeter[i])
	}
	return m
}

// meterSender sizes one sender's round of messages: global aggregates plus
// the per-directed-edge accumulation behind MaxEdgeRoundBits and the
// bandwidth check. It touches only the sender's own state. Only the edge
// slots actually written this round are revisited (and re-zeroed), so the
// cost is O(#messages) rather than O(degree) — a vertex of degree Δ that
// pings one neighbor no longer pays a Δ-wide scan.
func (s *shard) meterSender(c *Ctx) MeterReport {
	r := MeterReport{ViolSender: -1}
	// Records carry their size from SendRec and their neighbor slot from
	// validation time: no interface call, no binary search.
	for ri := range c.outRecs {
		o := &c.outRecs[ri]
		b := int(o.bits)
		if b < 0 {
			b = 0
		}
		r.Msgs++
		r.Bits += int64(b)
		if b > r.MaxMsg {
			r.MaxMsg = b
		}
		if s.cut != nil && s.cut[c.id] != s.cut[o.to] {
			r.CutBits += int64(b)
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
		if eb > r.MaxEdge {
			r.MaxEdge = eb
		}
		if s.bandwidth > 0 && eb > s.bandwidth {
			r.Violations++
			if r.ViolSender < 0 {
				r.ViolSender, r.ViolTo, r.ViolBits = c.id, c.nbrs[i], eb
			}
		}
	}
	c.touched = c.touched[:0]
	return r
}

// flush commits the shard's own queued sends, senders in ascending id
// and a sender's records in send order: each record is traced as a Send
// and delivered when its receiver is in the range (a worker's
// cross-shard records travel in batches instead). The senders' out
// arenas are cleared.
func (s *shard) flush() {
	for _, c := range s.dirty {
		for ri := range c.outRecs {
			o := &c.outRecs[ri]
			if s.tracer != nil {
				s.tracer.Event(TraceEvent{Kind: TraceSend, Round: s.round, V: c.id, Peer: int(o.to), Tag: o.tag, Bits: int(o.bits)})
			}
			if s.owns(int(o.to)) {
				s.deliver(c.id, int(o.to), Rec{Tag: o.tag, Flag: o.flag, A: o.a, B: o.b, F0: o.f0, F1: o.f1, F2: o.f2}, o.bits, c.outInts[o.off:o.off+o.n])
			}
		}
		c.clearSends()
	}
	s.dirty = s.dirty[:0]
}

// discard drops the shard's queued sends uncommitted, on an abort.
func (s *shard) discard() {
	for _, c := range s.dirty {
		c.clearSends()
	}
	s.dirty = s.dirty[:0]
}

// deliver copies one record into the inbox arena of vertex to: the
// header, and the packed int tail. A record for a retired vertex is
// dropped; a parked receiver is woken and joins s.woken. Callers deliver
// in ascending sender id, so every arena arrives sorted by sender.
func (s *shard) deliver(from, to int, rec Rec, bits int64, tail []int) {
	c := s.ctxs[to]
	if c.done {
		return
	}
	s.deliv++
	s.delivBits += bits
	if s.tracer != nil {
		s.tracer.Event(TraceEvent{Kind: TraceDeliver, Round: s.round, V: to, Peer: from, Tag: rec.Tag, Bits: int(bits)})
	}
	off := int32(len(c.inInts))
	if len(tail) > 0 {
		c.inInts = append(c.inInts, tail...)
	}
	c.inRecs = append(c.inRecs, InRec{From: from, Rec: rec, off: off, n: int32(len(tail))})
	if c.parked {
		c.parked = false
		s.parked--
		s.woken = append(s.woken, c)
		if s.tracer != nil {
			s.tracer.Event(TraceEvent{Kind: TraceWake, Round: s.round, V: to, Peer: from})
		}
	}
}

// advance builds the next round's active set after a charged round's
// deliveries: the vertices that yielded, then the ones the deliveries
// woke, each handed its inbox. It resets the delivery counters.
func (s *shard) advance() {
	s.active = s.active[:0]
	for _, c := range s.yielded {
		s.ins[c.id] = StepIn{Recs: c.takeRecs()}
		s.active = append(s.active, c)
	}
	for _, c := range s.woken {
		s.ins[c.id] = StepIn{Recs: c.takeRecs()}
		s.active = append(s.active, c)
	}
	s.woken = s.woken[:0]
	s.deliv, s.delivBits = 0, 0
}

// quiesce runs the epilogue of every vertex of the range still parked
// once the network has gone silent, in id order, stopping at the first
// failure (left in s.abort).
func (s *shard) quiesce() {
	for v := s.lo; v < s.hi; v++ {
		c := s.ctxs[v]
		if !c.parked {
			continue
		}
		c.parked = false
		s.stepEpilogue(s.machines[v], c)
		if s.abort != nil {
			return
		}
	}
	s.parked = 0
}

// stepEpilogue drains a parked machine after quiescence: it is stepped
// with Quiesced until it retires — an empty inbox after a yield,
// Quiesced again after a park — and all its sends are discarded.
func (s *shard) stepEpilogue(m Machine, c *Ctx) {
	in := StepIn{Quiesced: true}
	for {
		st, err := stepSafe(m, c, in)
		c.clearSends()
		if err != nil {
			s.abort = err
			return
		}
		switch st {
		case StepDone:
			c.done = true
			s.traceBlocked(TraceRetire, c.id)
			return
		case StepYield:
			in = StepIn{}
		case StepPark:
			in = StepIn{Quiesced: true}
		}
	}
}

// traceBlocked emits a Park or Retire event for vertex v, stamped one
// past the last completed round. The nil check lives here so every
// parking/retiring site pays one predictable branch and zero
// allocations when tracing is disabled.
func (s *shard) traceBlocked(kind TraceKind, v int) {
	if s.tracer == nil {
		return
	}
	s.tracer.Event(TraceEvent{Kind: kind, Round: s.round + 1, V: v, Peer: -1})
}
