package dist

import "time"

// The global half of the engine: the run's Stats and every decision
// that needs all shards' reports at once — whether a round finishes the
// run, quiesces it, aborts it, or is charged — plus the per-round
// narration (Phase, OnRound, and the timing channel). The in-process run
// (dist.go) feeds it its one shard's counts directly; Coordinate
// (coord.go) feeds it the sums of the workers' reports. Either way the
// decision, its error text, and the Stats fold are the code below.

// global is the global half of the engine.
type global struct {
	n         int
	bandwidth int
	enforce   bool
	maxRounds int
	cancel    <-chan struct{} // nil: never canceled
	onRound   func(RoundActivity)
	tracer    Tracer
	stats     Stats

	// The timing channel, armed only by an in-process run with a tracer:
	// the previous round boundary and the current round's accumulated
	// stepping and routing time.
	timed    bool
	lastTick time.Time
	stepNs   int64
	routeNs  int64
}

func newGlobal(cfg Config) *global {
	g := &global{
		n:         cfg.Graph.N(),
		bandwidth: cfg.Bandwidth,
		enforce:   cfg.Enforce,
		maxRounds: cfg.MaxRounds,
		cancel:    cfg.Cancel,
		onRound:   cfg.OnRound,
		tracer:    cfg.Tracer,
	}
	if g.maxRounds <= 0 {
		g.maxRounds = DefaultMaxRounds
	}
	return g
}

// decide takes the round decision once every vertex active this round
// has stepped, given the number of retired vertices and of vertices that
// yielded: finish when every vertex has retired; quiesce when none
// yielded and no pending delivery would reach a live vertex (wakes is
// asked only then); otherwise charge the next round, unless that exceeds
// MaxRounds or Cancel has fired. round is the round the decision stands
// at — the next one for a commit, the last completed one for finish and
// quiesce, whose pending sends are metered and dropped without charging
// a round. Nothing is counted until charge.
func (g *global) decide(done, yielded int, wakes func() bool) (kind DecisionKind, round int, err error) {
	switch {
	case done == g.n:
		return DecideFinish, g.stats.Rounds, nil
	case yielded == 0 && !wakes():
		return DecideQuiesce, g.stats.Rounds, nil
	}
	round = g.stats.Rounds + 1
	if round > g.maxRounds {
		return DecideAbort, round, roundLimitError(round, g.maxRounds)
	}
	if canceled(g.cancel) {
		return DecideAbort, round, cancelError(round)
	}
	return DecideCommit, round, nil
}

// charge completes the decision taken at round: with Enforce set, a
// budget violation in the round's metered sends aborts the run, naming
// the first violation by ascending sender; otherwise the metering is
// folded into Stats and round counted as completed.
func (g *global) charge(m *MeterReport, round int) error {
	if g.enforce && m.ViolSender >= 0 {
		return bandwidthError(m.ViolSender, m.ViolBits, m.ViolTo, round, g.bandwidth)
	}
	s := &g.stats
	s.Messages += m.Msgs
	s.TotalBits += m.Bits
	s.CutBits += m.CutBits
	s.MaxMessageBits = max(s.MaxMessageBits, m.MaxMsg)
	s.MaxEdgeRoundBits = max(s.MaxEdgeRoundBits, m.MaxEdge)
	s.BandwidthViolations += m.Violations
	s.Rounds = round
	return nil
}

// record folds a charged round's activity into Stats and narrates it:
// the tracer's Phase snapshot and, when the timing channel is armed, its
// RoundTime measurement, then the OnRound hook.
func (g *global) record(act RoundActivity) {
	g.stats.ActiveSteps += int64(act.Active)
	g.stats.ParkedSteps += int64(act.Parked)
	g.stats.PeakActive = max(g.stats.PeakActive, act.Active)
	if g.tracer != nil {
		g.tracer.Phase(act)
		if g.timed {
			g.traceRoundTime(act.Round)
		}
	}
	if g.onRound != nil {
		g.onRound(act)
	}
	if g.timed {
		// Hook and tracer time belongs to neither round: re-arm the
		// boundary timestamp after the callbacks return.
		g.lastTick = time.Now()
	}
}

// timeInto runs f, adding its wall time to *ns when the timing channel
// is armed.
func (g *global) timeInto(ns *int64, f func()) {
	if !g.timed {
		f()
		return
	}
	t0 := time.Now()
	f()
	*ns += int64(time.Since(t0))
}
