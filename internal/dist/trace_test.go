package dist

import (
	"fmt"
	"reflect"
	"testing"

	"distspanner/internal/graph"
)

// Tests for the tracing hooks (trace.go): the exact stamping rules, the
// transcript's agreement between the engine, its sharded runner, and the
// reference interpreter — per-vertex event buffers and Phase snapshots,
// with and without faults — and the nil-tracer contract (zero
// allocations, no timestamps) on the disabled path.

// memTracer is the in-package test recorder: per-vertex append-only
// event buffers plus the phase and timing channels. Tracer calls are
// serialized by the engine (the same discipline as OnRound), so no
// locking is needed.
type memTracer struct {
	events  [][]TraceEvent
	phases  []RoundActivity
	timings []RoundTiming
}

func newMemTracer(n int) *memTracer {
	return &memTracer{events: make([][]TraceEvent, n)}
}

func (m *memTracer) Event(ev TraceEvent)     { m.events[ev.V] = append(m.events[ev.V], ev) }
func (m *memTracer) Phase(act RoundActivity) { m.phases = append(m.phases, act) }
func (m *memTracer) RoundTime(t RoundTiming) { m.timings = append(m.timings, t) }

func TestTraceKindStringRoundTrip(t *testing.T) {
	for _, k := range []TraceKind{TraceSend, TraceDeliver, TraceWake, TracePark, TraceRetire} {
		got, ok := ParseTraceKind(k.String())
		if !ok || got != k {
			t.Errorf("ParseTraceKind(%q) = %v, %v", k.String(), got, ok)
		}
	}
	if _, ok := ParseTraceKind("bogus"); ok {
		t.Error("ParseTraceKind accepted bogus kind")
	}
}

// TestTraceEventSequence pins the exact transcript of a two-vertex
// exchange — the worked example of the round-stamping rules: sends and
// deliveries carry the routed round, routing visits senders in
// ascending id (so v1's delivery from v0 lands before v1's own send is
// routed), a yield is not a park (no park/wake events), and retirements
// carry the round after the last completed one.
func TestTraceEventSequence(t *testing.T) {
	g := graph.New(2)
	g.AddEdge(0, 1)
	forRunners(t, func(t *testing.T, run func(Config, func(*Ctx) Machine) (*Stats, error)) {
		tr := newMemTracer(2)
		_, err := run(Config{Graph: g, Seed: 1, Tracer: tr}, yieldThen(func(ctx *Ctx, in StepIn, step int) bool {
			if step == 0 {
				ctx.SendRec(1-ctx.ID(), Rec{Tag: 4, A: int64(ctx.ID())}, 8)
				return false
			}
			if len(in.Recs) != 1 {
				t.Errorf("vertex %d: got %d records", ctx.ID(), len(in.Recs))
			}
			return true
		}))
		if err != nil {
			t.Fatal(err)
		}
		want := [][]TraceEvent{
			{
				{Kind: TraceSend, Round: 1, V: 0, Peer: 1, Tag: 4, Bits: 8},
				{Kind: TraceDeliver, Round: 1, V: 0, Peer: 1, Tag: 4, Bits: 8},
				{Kind: TraceRetire, Round: 2, V: 0, Peer: -1},
			},
			{
				{Kind: TraceDeliver, Round: 1, V: 1, Peer: 0, Tag: 4, Bits: 8},
				{Kind: TraceSend, Round: 1, V: 1, Peer: 0, Tag: 4, Bits: 8},
				{Kind: TraceRetire, Round: 2, V: 1, Peer: -1},
			},
		}
		if !reflect.DeepEqual(tr.events, want) {
			t.Errorf("transcript mismatch:\ngot:  %+v\nwant: %+v", tr.events, want)
		}
		wantPhases := []RoundActivity{
			{Round: 1, Active: 2, Senders: 2, Delivered: 2, DeliveredBits: 16},
		}
		if !reflect.DeepEqual(tr.phases, wantPhases) {
			t.Errorf("phases mismatch:\ngot:  %+v\nwant: %+v", tr.phases, wantPhases)
		}
	})
}

// TestTraceParkWakeSequence pins the park/wake half of the lifecycle:
// a parking vertex is stamped with the round it parks into, a later
// delivery wakes it (stamped with the routed round), and quiescence
// retires the still-parked listener.
func TestTraceParkWakeSequence(t *testing.T) {
	g := graph.New(2)
	g.AddEdge(0, 1)
	forRunners(t, func(t *testing.T, run func(Config, func(*Ctx) Machine) (*Stats, error)) {
		tr := newMemTracer(2)
		_, err := run(Config{Graph: g, Seed: 1, Tracer: tr}, func(*Ctx) Machine {
			step := 0
			return machineFunc(func(ctx *Ctx, in StepIn) StepStatus {
				defer func() { step++ }()
				if ctx.ID() == 1 {
					if in.Quiesced {
						return StepDone // released by quiescence
					}
					return StepPark
				}
				switch step {
				case 0:
					return StepYield // idle round 1
				case 1:
					ctx.SendRec(1, Rec{A: 7}, 8)
					return StepYield
				}
				return StepDone
			})
		})
		if err != nil {
			t.Fatal(err)
		}
		want := [][]TraceEvent{
			{
				{Kind: TraceSend, Round: 2, V: 0, Peer: 1, Bits: 8},
				{Kind: TraceRetire, Round: 3, V: 0, Peer: -1},
			},
			{
				{Kind: TracePark, Round: 1, V: 1, Peer: -1},
				{Kind: TraceDeliver, Round: 2, V: 1, Peer: 0, Bits: 8},
				{Kind: TraceWake, Round: 2, V: 1, Peer: 0},
				{Kind: TracePark, Round: 3, V: 1, Peer: -1},
				{Kind: TraceRetire, Round: 3, V: 1, Peer: -1},
			},
		}
		if !reflect.DeepEqual(tr.events, want) {
			t.Errorf("transcript mismatch:\ngot:  %+v\nwant: %+v", tr.events, want)
		}
	})
}

// TestTraceCrossModeChaosEquivalence runs the fault-injecting chaos
// machine (random parks, variable-size sends, early retirements) on the
// sharded runner with a tracer installed and asserts the full logical
// transcript — every per-vertex event buffer and every Phase snapshot —
// is bit-identical to the reference interpreter's.
func TestTraceCrossModeChaosEquivalence(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"clique16":   clique(16),
		"path33":     path(33),
		"sparse2x40": func() *graph.Graph { g := graph.New(80); g.AddEdge(0, 79); return g }(),
	}
	mk := func(out []int64) func(*Ctx) Machine {
		return func(*Ctx) Machine { return &chaosWordMachine{out: out, steps: 12} }
	}
	for name, g := range graphs {
		for seed := int64(1); seed <= 2; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", name, seed), func(t *testing.T) {
				ref := observe(RunReference, Config{Graph: g, Seed: seed}, mk)
				sharded := observe(RunMachines, Config{Graph: g, Seed: seed, Shards: 3}, mk)
				if ref.err != nil || sharded.err != nil {
					t.Fatalf("reference err = %v, sharded err = %v", ref.err, sharded.err)
				}
				if !reflect.DeepEqual(ref.tr.events, sharded.tr.events) {
					t.Fatal("event transcript diverged")
				}
				if !reflect.DeepEqual(ref.tr.phases, sharded.tr.phases) {
					t.Fatalf("phases diverged:\nref: %+v\ngot: %+v", ref.tr.phases, sharded.tr.phases)
				}
			})
		}
	}
}

// TestTraceMachineCrossModeEquivalence holds the engine's transcript of
// the record chaos machine to the reference's, and checks the timing
// channel alongside it: exactly one RoundTime per completed round, in
// round order.
func TestTraceMachineCrossModeEquivalence(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"clique16": clique(16),
		"ring64":   benchGraph(64),
	}
	for name, g := range graphs {
		for seed := int64(1); seed <= 2; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", name, seed), func(t *testing.T) {
				o := matchReference(t, Config{Graph: g, Seed: seed}, func(out []int64) func(*Ctx) Machine {
					return func(*Ctx) Machine { return &chaosMachine{out: out, rounds: 12} }
				})
				if len(o.tr.timings) != len(o.tr.phases) {
					t.Fatalf("timings: got %d entries, want %d", len(o.tr.timings), len(o.tr.phases))
				}
				for i, tm := range o.tr.timings {
					if tm.Round != i+1 || tm.Step < 0 || tm.Route < 0 || tm.Sync < 0 {
						t.Fatalf("timing %d = %+v", i, tm)
					}
				}
			})
		}
	}
}

// TestTraceDeliveredMatchesStats cross-checks the Phase channel against
// the engine's own metering on a fully-busy run, where every sent
// record is also delivered: summed Delivered must equal Stats.Messages,
// summed DeliveredBits must equal Stats.TotalBits.
func TestTraceDeliveredMatchesStats(t *testing.T) {
	g := clique(8)
	forRunners(t, func(t *testing.T, run func(Config, func(*Ctx) Machine) (*Stats, error)) {
		tr := newMemTracer(g.N())
		stats, err := run(Config{Graph: g, Seed: 3, Tracer: tr}, yieldThen(func(ctx *Ctx, _ StepIn, step int) bool {
			if step == 4 {
				return true
			}
			ctx.BroadcastRec(Rec{A: int64(step)}, 16)
			return false
		}))
		if err != nil {
			t.Fatal(err)
		}
		var deliv, bits int64
		for _, act := range tr.phases {
			deliv += int64(act.Delivered)
			bits += act.DeliveredBits
		}
		if deliv != stats.Messages {
			t.Errorf("summed Delivered = %d, Stats.Messages = %d", deliv, stats.Messages)
		}
		if bits != stats.TotalBits {
			t.Errorf("summed DeliveredBits = %d, Stats.TotalBits = %d", bits, stats.TotalBits)
		}
	})
}

// TestNilTracerZeroAllocs pins the disabled path's cost: with no tracer
// installed, the per-event emission helpers must not allocate, and the
// engine must not arm the timing clock or delivery metering.
func TestNilTracerZeroAllocs(t *testing.T) {
	g := clique(4)
	e, err := newEngine(Config{Graph: g, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if e.timed {
		t.Error("nil tracer armed the timing clock")
	}
	if e.meterDlv {
		t.Error("nil tracer (and nil OnRound) armed delivery metering")
	}
	if n := testing.AllocsPerRun(100, func() {
		e.traceBlocked(TracePark, 2)
		e.traceBlocked(TraceRetire, 3)
	}); n != 0 {
		t.Errorf("traceBlocked with nil tracer allocated %v times per run", n)
	}
}
