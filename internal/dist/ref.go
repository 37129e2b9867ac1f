package dist

// RunReference is a deliberately naive sequential interpreter of the
// round semantics of RunMachines, called only by tests: the engine is
// correct when it agrees with it on Stats, outputs, the OnRound curve,
// and the traced transcript. Each round it steps the active machines in
// id order, then delivers the records of each sender in ascending id,
// metering per edge; no sharding, dirty list, arenas or parallel metering.
// Tracer.RoundTime is never called.
func RunReference(cfg Config, factory func(*Ctx) Machine) (*Stats, error) {
	if err := checkConfig(cfg); err != nil {
		return nil, err
	}
	n := cfg.Graph.N()
	if n == 0 {
		return &Stats{}, nil
	}
	if cfg.MaxRounds <= 0 {
		cfg.MaxRounds = DefaultMaxRounds
	}
	r := &refRun{cfg: cfg, state: make([]uint8, n), inbox: make([][]InRec, n)}
	for v := 0; v < n; v++ {
		r.ctxs = append(r.ctxs, newCtx(cfg.Graph, v, cfg.Seed))
		r.machines = append(r.machines, factory(r.ctxs[v]))
	}
	if err := r.run(); err != nil {
		return nil, err
	}
	return &r.stats, nil
}

// Vertex states: active vertices step next round (start, yielded, or
// woken); parked ones wait for a delivery or quiescence.
const (
	refActive uint8 = iota
	refParked
	refDone // retired
)

type refRun struct {
	cfg      Config
	ctxs     []*Ctx
	machines []Machine
	state    []uint8
	inbox    [][]InRec
	stats    Stats
	parked   int           // vertices in refParked
	act      RoundActivity // the round being routed
}

func (r *refRun) run() error {
	for first := true; ; first = false {
		stepped, yielded := 0, 0
		for v, c := range r.ctxs {
			if r.state[v] != refActive {
				continue
			}
			st, err := stepSafe(r.machines[v], c, StepIn{Start: first, Recs: r.inbox[v]})
			if err != nil {
				return err
			}
			r.inbox[v] = nil
			stepped++
			switch st {
			case StepYield:
				yielded++
			case StepPark:
				r.state[v], r.parked = refParked, r.parked+1
				r.event(TraceEvent{Kind: TracePark, Round: r.stats.Rounds + 1, V: v, Peer: -1})
			case StepDone:
				r.state[v] = refDone
				r.event(TraceEvent{Kind: TraceRetire, Round: r.stats.Rounds + 1, V: v, Peer: -1})
			}
		}
		if yielded == 0 && !r.anyLiveTarget() {
			// Nothing can happen again: meter and drop the last words
			// without charging a round, then release the parked vertices.
			if err := r.route(); err != nil {
				return err
			}
			return r.quiesce()
		}
		r.stats.Rounds++
		if r.stats.Rounds > r.cfg.MaxRounds {
			return roundLimitError(r.stats.Rounds, r.cfg.MaxRounds)
		}
		if canceled(r.cfg.Cancel) {
			return cancelError(r.stats.Rounds)
		}
		r.act = RoundActivity{Round: r.stats.Rounds, Active: stepped}
		if err := r.route(); err != nil {
			return err
		}
		r.act.Parked = r.parked
		r.stats.ActiveSteps += int64(r.act.Active)
		r.stats.ParkedSteps += int64(r.act.Parked)
		r.stats.PeakActive = max(r.stats.PeakActive, r.act.Active)
		if r.cfg.Tracer != nil {
			r.cfg.Tracer.Phase(r.act)
		}
		if r.cfg.OnRound != nil {
			r.cfg.OnRound(r.act)
		}
	}
}

// anyLiveTarget reports whether a queued record targets a live vertex.
func (r *refRun) anyLiveTarget() bool {
	for _, c := range r.ctxs {
		for _, o := range c.outRecs {
			if r.state[o.to] != refDone {
				return true
			}
		}
	}
	return false
}

// route meters every queued record and delivers it to live receivers,
// waking parked ones: senders ascending, each sender's in send order.
func (r *refRun) route() error {
	var abort error
	for v, c := range r.ctxs {
		if len(c.outRecs) == 0 {
			continue
		}
		r.act.Senders++
		edgeBits := make(map[int]int)
		var edges []int // receivers in order of their first nonzero send
		for _, o := range c.outRecs {
			to, b := int(o.to), max(int(o.bits), 0)
			r.stats.Messages++
			r.stats.TotalBits += int64(b)
			r.stats.MaxMessageBits = max(r.stats.MaxMessageBits, b)
			if r.cfg.CutSide != nil && r.cfg.CutSide[v] != r.cfg.CutSide[to] {
				r.stats.CutBits += int64(b)
			}
			if b > 0 && edgeBits[to] == 0 {
				edges = append(edges, to)
			}
			edgeBits[to] += b
		}
		for _, to := range edges {
			eb := edgeBits[to]
			r.stats.MaxEdgeRoundBits = max(r.stats.MaxEdgeRoundBits, eb)
			if r.cfg.Bandwidth > 0 && eb > r.cfg.Bandwidth {
				r.stats.BandwidthViolations++
				if r.cfg.Enforce && abort == nil {
					abort = bandwidthError(v, eb, to, r.stats.Rounds, r.cfg.Bandwidth)
				}
			}
		}
		for _, o := range c.outRecs {
			to, bits := int(o.to), int(o.bits)
			r.event(TraceEvent{Kind: TraceSend, Round: r.stats.Rounds, V: v, Peer: to, Tag: o.tag, Bits: bits})
			if r.state[to] == refDone {
				continue
			}
			r.act.Delivered++
			r.act.DeliveredBits += o.bits
			r.event(TraceEvent{Kind: TraceDeliver, Round: r.stats.Rounds, V: to, Peer: v, Tag: o.tag, Bits: bits})
			rec := Rec{Tag: o.tag, Flag: o.flag, A: o.a, B: o.b, F0: o.f0, F1: o.f1, F2: o.f2}
			rec.Ints = append([]int(nil), c.outInts[o.off:o.off+o.n]...)
			r.inbox[to] = append(r.inbox[to], InRec{From: v, Rec: rec})
			if r.state[to] == refParked {
				r.state[to], r.parked = refActive, r.parked-1
				r.event(TraceEvent{Kind: TraceWake, Round: r.stats.Rounds, V: to, Peer: v})
			}
		}
		c.clearSends()
	}
	return abort
}

// quiesce steps every parked machine, in id order, until it retires —
// an empty inbox after a yield, Quiesced after a park; sends go nowhere.
func (r *refRun) quiesce() error {
	for v, c := range r.ctxs {
		for in := (StepIn{Quiesced: true}); r.state[v] == refParked; {
			st, err := stepSafe(r.machines[v], c, in)
			c.clearSends()
			if err != nil {
				return err
			}
			if st == StepDone {
				r.state[v] = refDone
				r.event(TraceEvent{Kind: TraceRetire, Round: r.stats.Rounds + 1, V: v, Peer: -1})
			}
			in = StepIn{Quiesced: st == StepPark}
		}
	}
	return nil
}

func (r *refRun) event(ev TraceEvent) {
	if r.cfg.Tracer != nil {
		r.cfg.Tracer.Event(ev)
	}
}
