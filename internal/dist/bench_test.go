package dist

import (
	"fmt"
	"testing"

	"distspanner/internal/graph"
)

// The engine yardsticks for perf work, across network sizes and
// activity fractions:
//
//   - BenchmarkMachineBusy: fully-busy record gossip (every vertex
//     broadcasts every round) — every round steps and routes all n
//     vertices.
//   - BenchmarkQuietRounds: one active vertex, everyone else parked —
//     the regime the spanner algorithms' tails live in, where a round
//     must cost O(#active), not O(n).
//   - BenchmarkSparseActivity: a tunable fraction of active vertices,
//     mapping the ground between those extremes.
//   - BenchmarkTraceOverhead*: the busy and quiet workloads with and
//     without a (null) tracer, pricing the tracing hooks.
//
// All variants assert the protocol ran the expected number of rounds, so
// a scheduling bug cannot masquerade as a speedup.

const benchRounds = 16

// quietBenchRounds is deliberately larger: the quiet-round benchmarks
// measure the steady-state cost of a round, so the per-run fixed cost of
// building n vertex contexts has to be amortized away.
const quietBenchRounds = 256

// benchGraph is a ring with chords: degree 4, deterministic, cheap to
// build at any size.
func benchGraph(n int) *graph.Graph {
	g := graph.New(n)
	for v := 0; v < n; v++ {
		g.AddEdge(v, (v+1)%n)
		if n > 4 {
			g.AddEdge(v, (v+2)%n)
		}
	}
	return g
}

// runBench runs the machines b.N times on g, asserting the round count,
// and reports rounds/sec.
func runBench(b *testing.B, cfg Config, rounds int, factory func(*Ctx) Machine) {
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stats, err := RunMachines(cfg, factory)
		if err != nil {
			b.Fatal(err)
		}
		if stats.Rounds != rounds {
			b.Fatalf("rounds = %d", stats.Rounds)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(rounds)*float64(b.N)/b.Elapsed().Seconds(), "rounds/sec")
}

// sparseMachine activates the first activeCount vertices (send to the
// first neighbor and yield, every round); the rest park until a record
// arrives and are released by quiescence. Actives near the boundary wake
// a couple of parked vertices per round, as real protocol frontiers do.
// activeCount 1 is the quiet extreme: one vertex pinging one neighbor.
func sparseMachine(activeCount int) func(*Ctx) Machine {
	return func(c *Ctx) Machine {
		round := 0
		return machineFunc(func(ctx *Ctx, in StepIn) StepStatus {
			for i := range in.Recs {
				_ = in.Recs[i].A
			}
			if ctx.ID() >= activeCount {
				if in.Quiesced {
					return StepDone
				}
				return StepPark
			}
			if round == quietBenchRounds {
				return StepDone
			}
			ctx.SendRec(ctx.Neighbors()[0], Rec{Tag: 1, A: int64(round)}, 32)
			round++
			return StepYield
		})
	}
}

func BenchmarkQuietRounds(b *testing.B) {
	for _, n := range []int{256, 2048, 16384} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			runBench(b, Config{Graph: benchGraph(n), Seed: 1}, quietBenchRounds, sparseMachine(1))
		})
	}
}

func BenchmarkSparseActivity(b *testing.B) {
	for _, n := range []int{2048, 16384} {
		for _, pct := range []int{1, 10, 50} {
			b.Run(fmt.Sprintf("n=%d/active=%d%%", n, pct), func(b *testing.B) {
				runBench(b, Config{Graph: benchGraph(n), Seed: 1}, quietBenchRounds, sparseMachine(n*pct/100))
			})
		}
	}
}

// benchMachine is fully-busy record gossip: every vertex broadcasts one
// record per round for benchRounds rounds.
type benchMachine struct{ round int }

func (m *benchMachine) Step(ctx *Ctx, in StepIn) StepStatus {
	if !in.Start {
		for i := range in.Recs {
			_ = i
		}
	}
	if m.round == benchRounds {
		return StepDone
	}
	ctx.BroadcastRec(Rec{Tag: 1, A: int64(m.round)}, 32)
	m.round++
	return StepYield
}

func newBenchMachine(*Ctx) Machine { return &benchMachine{} }

// BenchmarkMachineBusy keeps its mode=step row names so the committed
// baselines stay comparable across the retirement of the other engines.
func BenchmarkMachineBusy(b *testing.B) {
	for _, n := range []int{256, 2048, 16384} {
		b.Run(fmt.Sprintf("n=%d/mode=step", n), func(b *testing.B) {
			runBench(b, Config{Graph: benchGraph(n), Seed: 1}, benchRounds, newBenchMachine)
		})
	}
}

// nullTracer drops every hook call: the traced benchmark variants
// measure the engine-side cost of tracing itself (timestamps, event
// construction, delivery metering), not the cost of any recorder.
type nullTracer struct{}

func (nullTracer) Event(TraceEvent)      {}
func (nullTracer) Phase(RoundActivity)   {}
func (nullTracer) RoundTime(RoundTiming) {}

// BenchmarkTraceOverheadBusy pairs untraced and traced runs of the
// fully-busy record gossip — the most events per round, hence the
// tracing worst case. tracer=off is the nil-Tracer disabled path the
// benchgate guards against regressing; tracer=null isolates what
// enabling the hooks costs on top.
func BenchmarkTraceOverheadBusy(b *testing.B) {
	for _, n := range []int{256, 2048} {
		for _, v := range []struct {
			name string
			tr   Tracer
		}{{"off", nil}, {"null", nullTracer{}}} {
			b.Run(fmt.Sprintf("n=%d/tracer=%s", n, v.name), func(b *testing.B) {
				runBench(b, Config{Graph: benchGraph(n), Seed: 1, Tracer: v.tr}, benchRounds, newBenchMachine)
			})
		}
	}
}

// BenchmarkTraceOverheadQuiet is the same pair in the quiet regime —
// one driver, everyone parked — where per-round fixed costs (the
// timestamp reads and Phase emission) dominate over per-event costs.
func BenchmarkTraceOverheadQuiet(b *testing.B) {
	for _, v := range []struct {
		name string
		tr   Tracer
	}{{"off", nil}, {"null", nullTracer{}}} {
		b.Run(fmt.Sprintf("n=2048/tracer=%s", v.name), func(b *testing.B) {
			runBench(b, Config{Graph: benchGraph(2048), Seed: 1, Tracer: v.tr}, quietBenchRounds, sparseMachine(1))
		})
	}
}
