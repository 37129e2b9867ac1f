package dist

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
)

// Tests for the flat-buffer typed inbox (rec.go): delivery order,
// metering, arena reuse, parking, and randomized engine-vs-reference
// equivalence over tail-heavy and fault (early-retirement) workloads.
// These all run under the CI -race job.

func TestRecDeliveryAndOrdering(t *testing.T) {
	// Each vertex broadcasts one record naming itself; everyone must
	// receive exactly its neighbors' records sorted by sender, with the
	// scalar and tail fields intact, and the next round must be empty.
	forRunners(t, func(t *testing.T, run func(Config, func(*Ctx) Machine) (*Stats, error)) {
		g := path(5)
		got := make([][]int, g.N())
		stats, err := run(Config{Graph: g, Seed: 1}, yieldThen(func(ctx *Ctx, in StepIn, step int) bool {
			switch step {
			case 0:
				ctx.BroadcastRec(Rec{Tag: 3, Flag: 1, A: int64(ctx.ID()), F0: 0.5, Ints: []int{ctx.ID(), 99}}, 10)
			case 1:
				for _, r := range in.Recs {
					if r.Tag != 3 || r.Flag != 1 || r.A != int64(r.From) || r.F0 != 0.5 {
						t.Errorf("scalar fields corrupted: %+v", r)
					}
					if len(r.Ints) != 2 || r.Ints[0] != r.From || r.Ints[1] != 99 {
						t.Errorf("tail corrupted: %+v", r)
					}
					got[ctx.ID()] = append(got[ctx.ID()], r.From)
				}
			default:
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
		if stats.Messages != 8 || stats.TotalBits != 80 || stats.MaxMessageBits != 10 {
			t.Fatalf("metering wrong: %+v", stats)
		}
	})
}

func TestRecBandwidthEnforced(t *testing.T) {
	// Record bits count against the per-edge budget, including
	// accumulation across records on one edge, and a budget that is met
	// exactly is no violation.
	forRunners(t, func(t *testing.T, run func(Config, func(*Ctx) Machine) (*Stats, error)) {
		send := func(bits ...int) func(*Ctx) Machine {
			return yieldThen(func(ctx *Ctx, _ StepIn, step int) bool {
				if step == 0 && ctx.ID() == 0 {
					for i, b := range bits {
						ctx.SendRec(1, Rec{Tag: uint8(i)}, b)
					}
				}
				return step == 1
			})
		}
		if _, err := run(Config{Graph: path(2), Seed: 1, Bandwidth: 64, Enforce: true}, send(40, 40)); !errors.Is(err, ErrBandwidth) {
			t.Fatalf("accumulated record traffic not enforced: err = %v", err)
		}
		if _, err := run(Config{Graph: path(2), Seed: 1, Bandwidth: 64, Enforce: true}, send(40, 24)); err != nil {
			t.Fatalf("traffic at the budget rejected: %v", err)
		}
	})
}

func TestRecCutBits(t *testing.T) {
	// Cut metering with records of different sizes on each side.
	cut := []bool{false, false, true, true}
	forRunners(t, func(t *testing.T, run func(Config, func(*Ctx) Machine) (*Stats, error)) {
		stats, err := run(Config{Graph: path(4), Seed: 1, CutSide: cut}, yieldThen(func(ctx *Ctx, _ StepIn, step int) bool {
			if step == 0 {
				ctx.BroadcastRec(Rec{Tag: 1}, 7+ctx.ID())
			}
			return step == 1
		}))
		if err != nil {
			t.Fatal(err)
		}
		if stats.CutBits != 8+9 { // 1->2 and 2->1
			t.Fatalf("CutBits = %d, want 17", stats.CutBits)
		}
	})
}

func TestRecArenaReusedAcrossRounds(t *testing.T) {
	// The whole point of the arena: after warm-up, steady-state rounds
	// append into retained buffers. Assert the delivered views stay
	// correct round over round while the backing arrays are reused
	// (record contents must never bleed between rounds).
	forRunners(t, func(t *testing.T, run func(Config, func(*Ctx) Machine) (*Stats, error)) {
		_, err := run(Config{Graph: clique(4), Seed: 1}, yieldThen(func(ctx *Ctx, in StepIn, step int) bool {
			if step > 0 {
				r := step - 1
				for _, rec := range in.Recs {
					if rec.Tag != uint8(r+1) || rec.A != int64(r) {
						t.Errorf("round %d: stale header %+v", r, rec)
					}
					for _, x := range rec.Ints {
						if x != r {
							t.Errorf("round %d: stale tail %v", r, rec.Ints)
						}
					}
				}
			}
			if step == 8 {
				return true
			}
			ctx.BroadcastRec(Rec{Tag: uint8(step + 1), A: int64(step), Ints: []int{step, step, step}}, 5)
			return false
		}))
		if err != nil {
			t.Fatal(err)
		}
	})
}

func TestRecRecvParksAndQuiesces(t *testing.T) {
	// Vertex 0 drives three waves, then everyone quiesces: parked relays
	// must wake for each wave and then be released by quiescence.
	forRunners(t, func(t *testing.T, run func(Config, func(*Ctx) Machine) (*Stats, error)) {
		g := path(8)
		waves := make([]int, g.N())
		stats, err := run(Config{Graph: g, Seed: 1}, func(*Ctx) Machine {
			step := 0
			return machineFunc(func(ctx *Ctx, in StepIn) StepStatus {
				defer func() { step++ }()
				if ctx.ID() == 0 {
					if step == 3 {
						return StepDone
					}
					ctx.SendRec(1, Rec{Tag: 1, A: int64(step)}, 8)
					return StepYield
				}
				if in.Quiesced {
					return StepDone
				}
				if !in.Start {
					if len(in.Recs) == 0 {
						t.Errorf("vertex %d woken with an empty record inbox", ctx.ID())
					}
					waves[ctx.ID()] += len(in.Recs)
					// Relay one hop down the path.
					if next := ctx.ID() + 1; next < ctx.N() {
						ctx.SendRec(next, Rec{Tag: 1, A: in.Recs[0].A}, 8)
					}
				}
				return StepPark
			})
		})
		if err != nil {
			t.Fatal(err)
		}
		for v := 1; v < g.N(); v++ {
			if waves[v] != 3 {
				t.Fatalf("vertex %d saw %d waves, want 3", v, waves[v])
			}
		}
		if stats.Messages != 3*7 {
			t.Fatalf("Messages = %d, want 21", stats.Messages)
		}
	})
}

// TestRecCrossModeChaosEquivalence runs the chaos machine with no
// OnRound hook and no tracer — the engine's unobserved fast path, which
// skips delivery metering — and requires the outputs and Stats of the
// observed reference run.
func TestRecCrossModeChaosEquivalence(t *testing.T) {
	for name, g := range chaosGraphs() {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", name, seed), func(t *testing.T) {
				mk := func(out []int64) func(*Ctx) Machine {
					return func(*Ctx) Machine { return &chaosMachine{out: out, rounds: 12} }
				}
				out := make([]int64, g.N())
				stats, err := RunMachines(Config{Graph: g, Seed: seed}, mk(out))
				if err != nil {
					t.Fatal(err)
				}
				ref := observe(RunReference, Config{Graph: g, Seed: seed}, mk)
				if ref.err != nil {
					t.Fatal(ref.err)
				}
				if !reflect.DeepEqual(out, ref.out) {
					t.Fatal("unobserved engine run diverged from the reference outputs")
				}
				if *stats != *ref.stats {
					t.Fatalf("stats diverged:\nengine:    %+v\nreference: %+v", *stats, *ref.stats)
				}
			})
		}
	}
}

// TestRecTailHeavyCrossMode drives a tail-heavy record workload — one
// active core, a long parked fringe woken in waves — and holds the
// engine to the reference, the regime the spanner tails live in.
func TestRecTailHeavyCrossMode(t *testing.T) {
	o := matchReference(t, Config{Graph: benchGraph(96), Seed: 9}, func([]int64) func(*Ctx) Machine {
		return func(*Ctx) Machine {
			step := 0
			return machineFunc(func(ctx *Ctx, in StepIn) StepStatus {
				defer func() { step++ }()
				if ctx.ID() < 4 {
					if step == 24 {
						return StepDone
					}
					to := ctx.Neighbors()[step%ctx.Degree()]
					ctx.SendRec(to, Rec{Tag: 1, A: int64(step), Ints: []int{step}}, 12)
					return StepYield
				}
				if in.Quiesced {
					return StepDone
				}
				// Occasionally ripple one record outward.
				if !in.Start && in.Recs[0].A%5 == 0 {
					ctx.SendRec(ctx.Neighbors()[0], Rec{Tag: 1, A: in.Recs[0].A + 100}, 12)
				}
				return StepPark
			})
		}
	})
	if o.stats.ParkedSteps == 0 {
		t.Fatal("tail-heavy workload recorded no parked steps")
	}
}
