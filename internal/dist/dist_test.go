package dist

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"distspanner/internal/graph"
)

func path(n int) *graph.Graph {
	g := graph.New(n)
	for v := 0; v+1 < n; v++ {
		g.AddEdge(v, v+1)
	}
	return g
}

func clique(n int) *graph.Graph {
	g := graph.New(n)
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			g.AddEdge(u, v)
		}
	}
	return g
}

// machineFunc adapts a function to the Machine interface.
type machineFunc func(*Ctx, StepIn) StepStatus

func (f machineFunc) Step(c *Ctx, in StepIn) StepStatus { return f(c, in) }

// runner is one execution of the round semantics.
type runner struct {
	name string
	run  func(Config, func(*Ctx) Machine) (*Stats, error)
}

// runners are the engine and the reference interpreter. The unit tests
// below hold both to the same hand-derived expectations, so a test
// failing for one runner only points straight at the one that is wrong.
var runners = []runner{{"engine", RunMachines}, {"reference", RunReference}}

// forRunners runs body once per runner as a named subtest.
func forRunners(t *testing.T, body func(t *testing.T, run func(Config, func(*Ctx) Machine) (*Stats, error))) {
	t.Helper()
	for _, r := range runners {
		t.Run(r.name, func(t *testing.T) { body(t, r.run) })
	}
}

// observed is everything one run exposes: per-vertex outputs, Stats or
// error, the OnRound curve, and the traced logical transcript.
type observed struct {
	out   []int64
	stats *Stats
	err   error
	curve []RoundActivity
	tr    *memTracer
}

// observe runs mk's machines under run with an OnRound hook and a tracer
// installed.
func observe(run func(Config, func(*Ctx) Machine) (*Stats, error), cfg Config, mk func(out []int64) func(*Ctx) Machine) observed {
	o := observed{out: make([]int64, cfg.Graph.N()), tr: newMemTracer(cfg.Graph.N())}
	cfg.OnRound = func(a RoundActivity) { o.curve = append(o.curve, a) }
	cfg.Tracer = o.tr
	o.stats, o.err = run(cfg, mk(o.out))
	return o
}

// firstLine trims an error message to its first line: a panic error
// carries the goroutine's stack below it, which differs between runners.
func firstLine(err error) string {
	msg := err.Error()
	if i := strings.IndexByte(msg, '\n'); i >= 0 {
		return msg[:i]
	}
	return msg
}

// matchReference runs mk's machines under RunMachines and RunReference
// and fails t unless the two are indistinguishable: the same error
// (first line), or the same outputs, Stats, activity curve, per-vertex
// transcript and phase snapshots. It returns the engine's observation.
func matchReference(t *testing.T, cfg Config, mk func(out []int64) func(*Ctx) Machine) observed {
	t.Helper()
	eng := observe(RunMachines, cfg, mk)
	ref := observe(RunReference, cfg, mk)
	if (eng.err == nil) != (ref.err == nil) {
		t.Fatalf("engine err = %v, reference err = %v", eng.err, ref.err)
	}
	if eng.err != nil {
		if firstLine(eng.err) != firstLine(ref.err) {
			t.Fatalf("errors differ:\nengine:    %v\nreference: %v", firstLine(eng.err), firstLine(ref.err))
		}
		return eng
	}
	if !reflect.DeepEqual(eng.out, ref.out) {
		t.Fatalf("outputs differ:\nengine:    %v\nreference: %v", eng.out, ref.out)
	}
	if *eng.stats != *ref.stats {
		t.Fatalf("stats differ:\nengine:    %+v\nreference: %+v", *eng.stats, *ref.stats)
	}
	if !reflect.DeepEqual(eng.curve, ref.curve) {
		t.Fatalf("activity curves differ:\nengine:    %+v\nreference: %+v", eng.curve, ref.curve)
	}
	if !reflect.DeepEqual(eng.tr.phases, ref.tr.phases) {
		t.Fatal("phase snapshots differ")
	}
	for v := range eng.tr.events {
		if !reflect.DeepEqual(eng.tr.events[v], ref.tr.events[v]) {
			t.Fatalf("vertex %d transcript differs:\nengine:    %+v\nreference: %+v", v, eng.tr.events[v], ref.tr.events[v])
		}
	}
	return eng
}

// gossipMachine is a deterministic-but-randomized protocol used by the
// determinism tests: for rounds iterations every vertex broadcasts a
// random word and accumulates what it hears into out[me].
func gossipMachine(rounds int, out []int64) func(*Ctx) Machine {
	return func(*Ctx) Machine {
		var acc int64
		r := 0
		return machineFunc(func(ctx *Ctx, in StepIn) StepStatus {
			if in.Start {
				acc = int64(ctx.ID())
			} else {
				for _, m := range in.Recs {
					acc = acc*31 + int64(m.From) + m.A
				}
				r++
			}
			if r == rounds {
				out[ctx.ID()] = acc
				return StepDone
			}
			ctx.BroadcastRec(Rec{Tag: 1, A: int64(ctx.Rand().Intn(1 << 20))}, 32)
			return StepYield
		})
	}
}

// yieldThen returns a factory whose machines run body on each step and
// yield until body returns true, then retire.
func yieldThen(body func(ctx *Ctx, in StepIn, step int) (done bool)) func(*Ctx) Machine {
	return func(*Ctx) Machine {
		step := 0
		return machineFunc(func(ctx *Ctx, in StepIn) StepStatus {
			done := body(ctx, in, step)
			step++
			if done {
				return StepDone
			}
			return StepYield
		})
	}
}

func TestFixedSeedDeterminism(t *testing.T) {
	g := clique(12)
	run := func(seed int64) ([]int64, Stats) {
		out := make([]int64, g.N())
		stats, err := RunMachines(Config{Graph: g, Seed: seed}, gossipMachine(8, out))
		if err != nil {
			t.Fatal(err)
		}
		return out, *stats
	}
	out1, st1 := run(42)
	out2, st2 := run(42)
	if !reflect.DeepEqual(out1, out2) {
		t.Fatal("two runs with the same seed produced different per-vertex outputs")
	}
	if st1 != st2 {
		t.Fatalf("two runs with the same seed produced different Stats:\n%+v\n%+v", st1, st2)
	}
	if st1.Rounds != 8 {
		t.Fatalf("Rounds = %d, want 8", st1.Rounds)
	}
	// The reference interpreter runs the same protocol to the same
	// transcript.
	matchReference(t, Config{Graph: g, Seed: 42}, func(out []int64) func(*Ctx) Machine { return gossipMachine(8, out) })
	// A different seed must actually change the random stream.
	if out3, _ := run(43); reflect.DeepEqual(out1, out3) {
		t.Fatal("different seeds produced identical outputs")
	}
}

func TestRoundCounting(t *testing.T) {
	// Vertex v stays for v+1 rounds; Rounds is the maximum.
	n := 7
	forRunners(t, func(t *testing.T, run func(Config, func(*Ctx) Machine) (*Stats, error)) {
		stats, err := run(Config{Graph: clique(n), Seed: 1}, yieldThen(func(ctx *Ctx, _ StepIn, step int) bool {
			return step > ctx.ID()
		}))
		if err != nil {
			t.Fatal(err)
		}
		if stats.Rounds != n {
			t.Fatalf("Rounds = %d, want %d (max yields over vertices)", stats.Rounds, n)
		}
		if stats.Messages != 0 || stats.TotalBits != 0 {
			t.Fatalf("silent protocol metered traffic: %+v", stats)
		}
	})
}

func TestMessageDeliveryAndOrdering(t *testing.T) {
	// On a path, each vertex broadcasts its id once; everyone must receive
	// exactly its neighbors' records, sorted by sender.
	forRunners(t, func(t *testing.T, run func(Config, func(*Ctx) Machine) (*Stats, error)) {
		g := path(5)
		got := make([][]int, g.N())
		stats, err := run(Config{Graph: g, Seed: 1}, yieldThen(func(ctx *Ctx, in StepIn, step int) bool {
			switch step {
			case 0:
				ctx.BroadcastRec(Rec{A: int64(ctx.ID())}, IDBits(ctx.N()))
			case 1:
				for _, m := range in.Recs {
					if m.A != int64(m.From) {
						t.Errorf("record %d does not match sender %d", m.A, m.From)
					}
					got[ctx.ID()] = append(got[ctx.ID()], m.From)
				}
			default:
				// No cross-round leakage: the next round is silent.
				if len(in.Recs) != 0 {
					t.Errorf("vertex %d received %d stale records", ctx.ID(), len(in.Recs))
				}
			}
			return step == 2
		}))
		if err != nil {
			t.Fatal(err)
		}
		want := [][]int{{1}, {0, 2}, {1, 3}, {2, 4}, {3}}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("inboxes = %v, want %v", got, want)
		}
		if stats.Messages != 8 { // 2*(n-1) directed endpoints
			t.Fatalf("Messages = %d, want 8", stats.Messages)
		}
		if stats.Rounds != 2 {
			t.Fatalf("Rounds = %d, want 2", stats.Rounds)
		}
	})
}

func TestBitsAccounting(t *testing.T) {
	// Vertex 0 sends 10 bits then 30 bits to vertex 1 in one round: the
	// edge carries 40 bits that round, and MaxMessageBits is 30.
	forRunners(t, func(t *testing.T, run func(Config, func(*Ctx) Machine) (*Stats, error)) {
		stats, err := run(Config{Graph: path(2), Seed: 1}, yieldThen(func(ctx *Ctx, _ StepIn, step int) bool {
			if step == 0 && ctx.ID() == 0 {
				ctx.SendRec(1, Rec{Tag: 1}, 10)
				ctx.SendRec(1, Rec{Tag: 2}, 30)
			}
			return step == 1
		}))
		if err != nil {
			t.Fatal(err)
		}
		if stats.TotalBits != 40 || stats.MaxMessageBits != 30 || stats.MaxEdgeRoundBits != 40 {
			t.Fatalf("accounting wrong: %+v", stats)
		}
		if !stats.CongestCompatible(40) || stats.CongestCompatible(39) {
			t.Fatalf("CongestCompatible inconsistent with MaxEdgeRoundBits: %+v", stats)
		}
	})
}

func TestEnforceRejectsOversizedPayload(t *testing.T) {
	oversized := yieldThen(func(ctx *Ctx, _ StepIn, step int) bool {
		if step == 0 && ctx.ID() == 0 {
			ctx.SendRec(1, Rec{}, 100)
		}
		return step == 2
	})
	forRunners(t, func(t *testing.T, run func(Config, func(*Ctx) Machine) (*Stats, error)) {
		g := path(2)
		_, err := run(Config{Graph: g, Seed: 1, Bandwidth: 64, Enforce: true}, oversized)
		if !errors.Is(err, ErrBandwidth) {
			t.Fatalf("enforced oversized record: err = %v, want ErrBandwidth", err)
		}
		// Unenforced, the same run completes and only counts the violation.
		stats, err := run(Config{Graph: g, Seed: 1, Bandwidth: 64}, oversized)
		if err != nil {
			t.Fatal(err)
		}
		if stats.BandwidthViolations != 1 {
			t.Fatalf("BandwidthViolations = %d, want 1", stats.BandwidthViolations)
		}
		// Two records within budget individually but not together also
		// violate: the budget is per edge per round, not per message.
		_, err = run(Config{Graph: g, Seed: 1, Bandwidth: 64, Enforce: true}, yieldThen(func(ctx *Ctx, _ StepIn, step int) bool {
			if step == 0 && ctx.ID() == 0 {
				ctx.SendRec(1, Rec{Tag: 1}, 40)
				ctx.SendRec(1, Rec{Tag: 2}, 40)
			}
			return step == 1
		}))
		if !errors.Is(err, ErrBandwidth) {
			t.Fatalf("accumulated edge traffic not enforced: err = %v", err)
		}
		// Enforcement also covers last words, and parked receivers do not
		// shield the run from it.
		_, err = run(Config{Graph: path(3), Seed: 1, Bandwidth: 8, Enforce: true}, func(*Ctx) Machine {
			return machineFunc(func(ctx *Ctx, in StepIn) StepStatus {
				if ctx.ID() == 0 {
					ctx.SendRec(1, Rec{}, 100)
					return StepDone
				}
				if in.Quiesced {
					return StepDone
				}
				return StepPark
			})
		})
		if !errors.Is(err, ErrBandwidth) {
			t.Fatalf("enforced bandwidth with parked receivers: err = %v", err)
		}
	})
}

func TestRoundLimit(t *testing.T) {
	forRunners(t, func(t *testing.T, run func(Config, func(*Ctx) Machine) (*Stats, error)) {
		_, err := run(Config{Graph: path(3), Seed: 1, MaxRounds: 10}, yieldThen(func(ctx *Ctx, _ StepIn, _ int) bool {
			ctx.BroadcastRec(Rec{}, 1)
			return false
		}))
		if !errors.Is(err, ErrRoundLimit) {
			t.Fatalf("runaway protocol: err = %v, want ErrRoundLimit", err)
		}
	})
}

func TestCutBits(t *testing.T) {
	// Path 0-1-2-3 cut between 1 and 2: only traffic on edge (1,2) counts.
	cut := []bool{false, false, true, true}
	forRunners(t, func(t *testing.T, run func(Config, func(*Ctx) Machine) (*Stats, error)) {
		stats, err := run(Config{Graph: path(4), Seed: 1, CutSide: cut}, yieldThen(func(ctx *Ctx, _ StepIn, step int) bool {
			if step == 0 {
				ctx.BroadcastRec(Rec{}, 7)
			}
			return step == 1
		}))
		if err != nil {
			t.Fatal(err)
		}
		if stats.CutBits != 14 { // 1->2 and 2->1
			t.Fatalf("CutBits = %d, want 14", stats.CutBits)
		}
	})
}

func TestTopologyAccessors(t *testing.T) {
	g := graph.New(4)
	g.AddEdge(2, 0)
	g.AddEdge(2, 3)
	g.AddEdge(2, 1)
	forRunners(t, func(t *testing.T, run func(Config, func(*Ctx) Machine) (*Stats, error)) {
		_, err := run(Config{Graph: g, Seed: 1}, yieldThen(func(ctx *Ctx, _ StepIn, _ int) bool {
			if ctx.N() != 4 {
				t.Errorf("N() = %d", ctx.N())
			}
			if ctx.ID() == 2 {
				if !reflect.DeepEqual(ctx.Neighbors(), []int{0, 1, 3}) {
					t.Errorf("Neighbors() = %v, want sorted {0,1,3}", ctx.Neighbors())
				}
				if ctx.Degree() != 3 {
					t.Errorf("Degree() = %d", ctx.Degree())
				}
			}
			return true
		}))
		if err != nil {
			t.Fatal(err)
		}
	})
}

func TestVertexTerminationStaggered(t *testing.T) {
	// Records sent to a vertex that already retired are metered but
	// dropped; the engine must not deadlock or misdeliver.
	forRunners(t, func(t *testing.T, run func(Config, func(*Ctx) Machine) (*Stats, error)) {
		stats, err := run(Config{Graph: clique(4), Seed: 1}, yieldThen(func(ctx *Ctx, in StepIn, step int) bool {
			if ctx.ID() == 0 {
				return true // leaves immediately
			}
			if step > 0 {
				for _, m := range in.Recs {
					if m.From == 0 {
						t.Error("received a record the retired vertex never sent")
					}
				}
				if len(in.Recs) != 2 { // the other two survivors
					t.Errorf("vertex %d round %d: %d records, want 2", ctx.ID(), step, len(in.Recs))
				}
			}
			if step == 3 {
				return true
			}
			ctx.BroadcastRec(Rec{}, 4)
			return false
		}))
		if err != nil {
			t.Fatal(err)
		}
		if stats.Rounds != 3 {
			t.Fatalf("Rounds = %d, want 3", stats.Rounds)
		}
		if stats.Messages != 27 { // 3 rounds x 3 senders x 3 neighbors
			t.Fatalf("Messages = %d, want 27", stats.Messages)
		}
	})
}

func TestSendToNonNeighborFails(t *testing.T) {
	forRunners(t, func(t *testing.T, run func(Config, func(*Ctx) Machine) (*Stats, error)) {
		_, err := run(Config{Graph: path(3), Seed: 1}, yieldThen(func(ctx *Ctx, _ StepIn, step int) bool {
			if ctx.ID() == 0 {
				ctx.SendRec(2, Rec{}, 1) // 0 and 2 are not adjacent
			}
			return step == 1
		}))
		if err == nil || !strings.Contains(err.Error(), "not a neighbor") {
			t.Fatalf("send to non-neighbor: err = %v", err)
		}
	})
}

func TestVertexPanicBecomesError(t *testing.T) {
	forRunners(t, func(t *testing.T, run func(Config, func(*Ctx) Machine) (*Stats, error)) {
		_, err := run(Config{Graph: clique(5), Seed: 1}, yieldThen(func(ctx *Ctx, _ StepIn, step int) bool {
			if step > 0 && ctx.ID() == 3 {
				panic("protocol bug")
			}
			ctx.BroadcastRec(Rec{}, 1)
			return false
		}))
		if err == nil || !strings.Contains(err.Error(), "protocol bug") {
			t.Fatalf("vertex panic: err = %v", err)
		}
		// A panic while the rest of the network is parked aborts too.
		_, err = run(Config{Graph: clique(5), Seed: 1}, func(*Ctx) Machine {
			return machineFunc(func(ctx *Ctx, in StepIn) StepStatus {
				if ctx.ID() == 3 {
					panic("protocol bug")
				}
				if !in.Start && !in.Quiesced {
					t.Error("parked vertex woke without delivery")
				}
				return StepPark
			})
		})
		if err == nil || !strings.Contains(err.Error(), "protocol bug") {
			t.Fatalf("vertex panic beside parked vertices: err = %v", err)
		}
	})
}

func TestDegenerateGraphs(t *testing.T) {
	forRunners(t, func(t *testing.T, run func(Config, func(*Ctx) Machine) (*Stats, error)) {
		stats, err := run(Config{Graph: graph.New(0), Seed: 1}, func(*Ctx) Machine {
			t.Error("factory invoked on empty graph")
			return nil
		})
		if err != nil || *stats != (Stats{}) {
			t.Fatalf("empty graph: %+v, %v", stats, err)
		}
		// A single isolated vertex can run rounds against nobody.
		ran := false
		stats, err = run(Config{Graph: graph.New(1), Seed: 1}, yieldThen(func(ctx *Ctx, in StepIn, step int) bool {
			ran = true
			if step == 0 {
				ctx.BroadcastRec(Rec{}, 9) // no neighbors: a no-op
			} else if len(in.Recs) != 0 {
				t.Error("isolated vertex received records")
			}
			return step == 1
		}))
		if err != nil || !ran {
			t.Fatalf("singleton run failed: %v", err)
		}
		if stats.Rounds != 1 || stats.Messages != 0 {
			t.Fatalf("singleton stats: %+v", stats)
		}
		// Disconnected components run independently.
		g := graph.New(4)
		g.AddEdge(0, 1)
		g.AddEdge(2, 3)
		if _, err := run(Config{Graph: g, Seed: 5}, gossipMachine(4, make([]int64, 4))); err != nil {
			t.Fatal(err)
		}
	})
}

func TestIDBits(t *testing.T) {
	cases := map[int]int{0: 1, 1: 1, 2: 1, 3: 2, 4: 2, 5: 3, 16: 4, 17: 5, 20: 5, 1024: 10, 1025: 11}
	for n, want := range cases {
		if got := IDBits(n); got != want {
			t.Errorf("IDBits(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	none := func(*Ctx) Machine { return nil }
	forRunners(t, func(t *testing.T, run func(Config, func(*Ctx) Machine) (*Stats, error)) {
		if _, err := run(Config{}, none); err == nil {
			t.Fatal("nil graph must error")
		}
		if _, err := run(Config{Graph: path(3), CutSide: []bool{true}}, none); err == nil {
			t.Fatal("mis-sized CutSide must error")
		}
	})
}
