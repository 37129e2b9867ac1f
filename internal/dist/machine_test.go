package dist

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"distspanner/internal/graph"
)

// Tests for the state-machine surface (machine.go), the step engine
// (step.go), parking and quiescence, the retire-flush delivery rule, and
// run cancellation. The chaos matrices run the same randomized machines
// under the engine and the reference interpreter (ref.go) and require
// indistinguishable runs: outputs, Stats, activity curves, transcripts.

// chaosMachine is a randomized record protocol: per iteration it may
// fault (retire early while peers keep sending to it), send records to
// random neighbors or broadcast with a shared tail, then yields or
// parks, and folds every delivery into a per-vertex hash — so any
// divergence in content, order, or lifecycle shows up in the output.
type chaosMachine struct {
	out    []int64
	h      int64
	r      int
	rounds int
}

func (m *chaosMachine) Step(c *Ctx, in StepIn) StepStatus {
	if in.Quiesced {
		m.h = m.h*31 + 7
		m.out[c.ID()] = m.h
		return StepDone
	}
	if in.Start {
		m.h = int64(c.ID())
	} else {
		for i := range in.Recs {
			rec := &in.Recs[i]
			m.h = m.h*31 + int64(rec.From)<<2 + int64(rec.Tag) + rec.A + rec.B
			for _, x := range rec.Ints {
				m.h = m.h*33 + int64(x)
			}
		}
		m.r++
	}
	if m.r >= m.rounds {
		m.out[c.ID()] = m.h
		return StepDone
	}
	if c.Rand().Intn(16) == 0 {
		m.h = m.h*31 + 13 // fault: retire early
		m.out[c.ID()] = m.h
		return StepDone
	}
	roll := c.Rand().Intn(8)
	switch {
	case roll == 0 && c.Degree() > 0:
		c.BroadcastRec(Rec{Tag: 2, A: int64(m.r), Ints: []int{m.r, c.ID()}}, 32)
	case roll < 3 && c.Degree() > 0:
		to := c.Neighbors()[c.Rand().Intn(c.Degree())]
		c.SendRec(to, Rec{Tag: 1, B: int64(to), F1: float64(m.r)}, 16)
	}
	if roll >= 6 {
		return StepPark
	}
	return StepYield
}

// chaosGraphs are the topologies of the chaos equivalence matrices:
// dense, long and thin, ring with chords, and almost entirely isolated.
func chaosGraphs() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"clique16":   clique(16),
		"path33":     path(33),
		"ring64":     benchGraph(64),
		"sparse2x40": func() *graph.Graph { g := graph.New(80); g.AddEdge(0, 79); return g }(),
	}
}

func TestMachineCrossModeChaosEquivalence(t *testing.T) {
	for name, g := range chaosGraphs() {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", name, seed), func(t *testing.T) {
				matchReference(t, Config{Graph: g, Seed: seed}, func(out []int64) func(*Ctx) Machine {
					return func(*Ctx) Machine { return &chaosMachine{out: out, rounds: 12} }
				})
			})
		}
	}
}

// lastWordsMachine: vertex 0 sends one record and immediately retires;
// every other vertex parks and must still receive the delivery — the
// retire-flush contract.
type lastWordsMachine struct {
	got []int64
}

func (m *lastWordsMachine) Step(c *Ctx, in StepIn) StepStatus {
	if c.ID() == 0 {
		c.SendRec(1, Rec{Tag: 1, A: 9}, 8)
		return StepDone // last words ride the retirement
	}
	if in.Quiesced {
		return StepDone
	}
	if in.Start {
		return StepPark
	}
	for i := range in.Recs {
		m.got = append(m.got, in.Recs[i].A)
	}
	return StepPark
}

func TestRetireFlushDeliversLastWords(t *testing.T) {
	// A vertex that retires with sends queued commits them with the
	// retirement: parked receivers wake on the delivery, and the round
	// counts because somebody observed it.
	forRunners(t, func(t *testing.T, run func(Config, func(*Ctx) Machine) (*Stats, error)) {
		var m1 lastWordsMachine
		stats, err := run(Config{Graph: path(3), Seed: 1}, func(c *Ctx) Machine {
			if c.ID() == 1 {
				return &m1
			}
			return &lastWordsMachine{}
		})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(m1.got, []int64{9}) {
			t.Fatalf("receiver saw %v, want [9]", m1.got)
		}
		if stats.Rounds != 1 || stats.Messages != 1 {
			t.Fatalf("stats = %+v, want Rounds=1 Messages=1", stats)
		}
	})
}

// lastWordsToCorpse is the silent-drop protocol: vertex 1 retires
// instantly, and after one observed round vertex 0 retires with two
// records addressed to the departed.
func lastWordsToCorpse(*Ctx) Machine {
	return machineFunc(func(ctx *Ctx, in StepIn) StepStatus {
		if ctx.ID() == 1 {
			return StepDone
		}
		if in.Start {
			return StepYield
		}
		ctx.SendRec(1, Rec{Tag: 1}, 8)
		ctx.SendRec(1, Rec{Tag: 1}, 8)
		return StepDone
	})
}

func TestRetireFlushSilentDrop(t *testing.T) {
	// Last words that can only reach already-retired vertices are metered
	// (the bits were sent) but dropped without charging a round: no
	// receiver could observe that boundary.
	forRunners(t, func(t *testing.T, run func(Config, func(*Ctx) Machine) (*Stats, error)) {
		stats, err := run(Config{Graph: path(2), Seed: 1}, lastWordsToCorpse)
		if err != nil {
			t.Fatal(err)
		}
		if stats.Rounds != 1 {
			t.Fatalf("Rounds = %d, want 1 (silent drop must not count a round)", stats.Rounds)
		}
		if stats.Messages != 2 || stats.TotalBits != 16 {
			t.Fatalf("dropped last words not metered: %+v", stats)
		}
	})
}

// busyMachine broadcasts a 4-bit record and yields, forever.
func busyMachine(*Ctx) Machine {
	return machineFunc(func(ctx *Ctx, in StepIn) StepStatus {
		ctx.BroadcastRec(Rec{Tag: 1}, 4)
		return StepYield
	})
}

func TestCancelAbortsRun(t *testing.T) {
	// A canceled run aborts at the next round boundary with ErrCanceled.
	forRunners(t, func(t *testing.T, run func(Config, func(*Ctx) Machine) (*Stats, error)) {
		g := clique(8)
		cancel := make(chan struct{})
		var canceledAt int
		_, err := run(Config{Graph: g, Seed: 1, Cancel: cancel,
			OnRound: func(a RoundActivity) {
				if a.Round == 5 {
					canceledAt = a.Round
					close(cancel)
				}
			}}, busyMachine)
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("err = %v, want ErrCanceled", err)
		}
		if canceledAt != 5 || !strings.Contains(err.Error(), "after 6 rounds") {
			t.Fatalf("cancel fired at round %d, aborted with %v", canceledAt, err)
		}
		// A pre-closed cancel aborts before any traffic is delivered.
		pre := make(chan struct{})
		close(pre)
		_, err = run(Config{Graph: g, Seed: 1, Cancel: pre}, busyMachine)
		if !errors.Is(err, ErrCanceled) {
			t.Fatalf("pre-closed cancel: err = %v, want ErrCanceled", err)
		}
	})
}

func TestMachineActivityAccounting(t *testing.T) {
	// The activity fold — Stats aggregates and the OnRound curve — must
	// agree between the engine and the reference, and the aggregates
	// must be the curve's sums.
	g := benchGraph(32)
	o := matchReference(t, Config{Graph: g, Seed: 3}, func(out []int64) func(*Ctx) Machine {
		return func(*Ctx) Machine { return &chaosMachine{out: out, rounds: 8} }
	})
	var active, parked int64
	peak := 0
	for _, a := range o.curve {
		active += int64(a.Active)
		parked += int64(a.Parked)
		peak = max(peak, a.Active)
	}
	if o.stats.ActiveSteps != active || o.stats.ParkedSteps != parked || o.stats.PeakActive != peak {
		t.Fatalf("aggregates %+v do not match curve sums (active=%d parked=%d peak=%d)", *o.stats, active, parked, peak)
	}
}

func TestRecvParksUntilDelivery(t *testing.T) {
	// Vertex 0 stays silent for 5 rounds, then pings vertex 1, which is
	// parked the whole time. The receiver must see exactly the round-6
	// delivery; the skipped rounds still count globally.
	forRunners(t, func(t *testing.T, run func(Config, func(*Ctx) Machine) (*Stats, error)) {
		var got []int64
		stats, err := run(Config{Graph: path(3), Seed: 1}, func(*Ctx) Machine {
			step := 0
			return machineFunc(func(ctx *Ctx, in StepIn) StepStatus {
				defer func() { step++ }()
				switch ctx.ID() {
				case 0:
					if step == 5 {
						ctx.SendRec(1, Rec{A: 77}, 8)
					}
					if step == 6 {
						return StepDone
					}
					return StepYield
				case 1:
					if in.Start {
						return StepPark
					}
					if in.Quiesced || len(in.Recs) != 1 {
						t.Errorf("vertex 1 woke with %+v", in)
						return StepDone
					}
					got = append(got, in.Recs[0].A)
					return StepDone
				default:
					// Parked forever: released only by quiescence.
					if !in.Start && !in.Quiesced {
						t.Error("vertex 2 woke without a delivery")
					}
					if in.Start {
						return StepPark
					}
					return StepDone
				}
			})
		})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, []int64{77}) {
			t.Fatalf("received %v", got)
		}
		if stats.Rounds != 6 {
			t.Fatalf("Rounds = %d, want 6", stats.Rounds)
		}
	})
}

func TestQuiesceImmediate(t *testing.T) {
	// Every vertex parks with nothing in flight: the run quiesces without
	// completing a single round.
	forRunners(t, func(t *testing.T, run func(Config, func(*Ctx) Machine) (*Stats, error)) {
		released := make([]bool, 4)
		stats, err := run(Config{Graph: clique(4), Seed: 1}, func(*Ctx) Machine {
			return machineFunc(func(ctx *Ctx, in StepIn) StepStatus {
				if in.Start {
					return StepPark
				}
				if !in.Quiesced || len(in.Recs) != 0 {
					t.Errorf("parked vertex on a silent network stepped with %+v", in)
				}
				released[ctx.ID()] = true
				return StepDone
			})
		})
		if err != nil {
			t.Fatal(err)
		}
		if stats.Rounds != 0 {
			t.Fatalf("Rounds = %d, want 0", stats.Rounds)
		}
		for v, ok := range released {
			if !ok {
				t.Fatalf("vertex %d never released by quiescence", v)
			}
		}
	})
}

func TestQuiesceAfterTraffic(t *testing.T) {
	// Each vertex forwards a token a fixed number of hops, then parks; the
	// run must flush all traffic, then quiesce deterministically.
	forRunners(t, func(t *testing.T, run func(Config, func(*Ctx) Machine) (*Stats, error)) {
		stats, err := run(Config{Graph: benchGraph(8), Seed: 1}, func(*Ctx) Machine {
			return machineFunc(func(ctx *Ctx, in StepIn) StepStatus {
				if in.Quiesced {
					return StepDone
				}
				if in.Start && ctx.ID() == 0 {
					ctx.SendRec(ctx.Neighbors()[0], Rec{A: 3}, 8)
				}
				for _, m := range in.Recs {
					if hops := m.A; hops > 0 {
						ctx.SendRec(ctx.Neighbors()[0], Rec{A: hops - 1}, 8)
					}
				}
				return StepPark
			})
		})
		if err != nil {
			t.Fatal(err)
		}
		// Token travels 4 hops (rounds 1-4); round 5 delivers nothing, but
		// the last forward commits in round 4 and quiescence follows.
		if stats.Rounds != 4 || stats.Messages != 4 {
			t.Fatalf("stats = %+v", stats)
		}
	})
}

func TestQuiesceEpilogueIsInert(t *testing.T) {
	// After quiescence a machine that yields is stepped again with an
	// empty inbox, one that parks is stepped with Quiesced again, and all
	// its sends are discarded.
	forRunners(t, func(t *testing.T, run func(Config, func(*Ctx) Machine) (*Stats, error)) {
		stats, err := run(Config{Graph: path(2), Seed: 1}, func(*Ctx) Machine {
			step := 0
			return machineFunc(func(ctx *Ctx, in StepIn) StepStatus {
				defer func() { step++ }()
				switch step {
				case 0:
					return StepPark
				case 1:
					if !in.Quiesced {
						t.Error("expected quiescence")
					}
					ctx.BroadcastRec(Rec{A: 1}, 8)
					return StepYield
				case 2:
					if in.Quiesced || len(in.Recs) != 0 {
						t.Errorf("post-quiescence yield stepped with %+v", in)
					}
					ctx.BroadcastRec(Rec{A: 2}, 8)
					return StepPark
				default:
					if !in.Quiesced || len(in.Recs) != 0 {
						t.Errorf("post-quiescence park stepped with %+v", in)
					}
					return StepDone
				}
			})
		})
		if err != nil {
			t.Fatal(err)
		}
		if stats.Rounds != 0 || stats.Messages != 0 {
			t.Fatalf("post-quiescence traffic metered: %+v", stats)
		}
	})
}

// chaosWordMachine is a randomized protocol mixing every scheduling
// request: each vertex flips its private coin to decide between sending
// variable-size records to random neighbors, yielding, and parking,
// folding everything it sends and hears into a per-vertex hash. Because
// each vertex's RNG is a pure function of (seed, id), the whole
// transcript must be a pure function of (graph, seed).
type chaosWordMachine struct {
	out   []int64
	h     int64
	s     int
	steps int
}

func (m *chaosWordMachine) Step(ctx *Ctx, in StepIn) StepStatus {
	switch {
	case in.Start:
		m.h = int64(ctx.ID()) + 1
	case in.Quiesced:
		m.h = m.h*31 + 7
		m.out[ctx.ID()] = m.h
		return StepDone
	default:
		for _, r := range in.Recs {
			m.h = m.h*31 + int64(r.From) + r.A<<1
		}
		m.s++
	}
	if m.s == m.steps {
		m.out[ctx.ID()] = m.h
		return StepDone
	}
	if deg := ctx.Degree(); deg > 0 && ctx.Rand().Intn(3) > 0 {
		for k := ctx.Rand().Intn(3); k > 0; k-- {
			to := ctx.Neighbors()[ctx.Rand().Intn(deg)]
			v := ctx.Rand().Intn(1 << 16)
			ctx.SendRec(to, Rec{A: int64(v)}, 8+v%9)
			m.h = m.h*31 + int64(v)
		}
	}
	if ctx.Rand().Intn(4) == 0 {
		return StepPark
	}
	return StepYield
}

func TestCrossModeChaosEquivalence(t *testing.T) {
	for name, g := range chaosGraphs() {
		for seed := int64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", name, seed), func(t *testing.T) {
				matchReference(t, Config{Graph: g, Seed: seed}, func(out []int64) func(*Ctx) Machine {
					return func(*Ctx) Machine { return &chaosWordMachine{out: out, steps: 10} }
				})
			})
		}
	}
}
