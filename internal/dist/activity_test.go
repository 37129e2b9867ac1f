package dist

import (
	"reflect"
	"testing"
)

// The activity-metering contract: Stats.ActiveSteps / ParkedSteps /
// PeakActive and the Config.OnRound per-round curve are exact and
// deterministic. These tests pin the semantics on hand-built protocols
// where the curve can be derived by hand, for the engine and the
// reference alike.

// collectActivity runs the machines under run and returns the stats
// plus the OnRound curve.
func collectActivity(t *testing.T, run func(Config, func(*Ctx) Machine) (*Stats, error), cfg Config, factory func(*Ctx) Machine) (*Stats, []RoundActivity) {
	t.Helper()
	var curve []RoundActivity
	cfg.OnRound = func(a RoundActivity) { curve = append(curve, a) }
	stats, err := run(cfg, factory)
	if err != nil {
		t.Fatal(err)
	}
	return stats, curve
}

func TestActivityAllBusy(t *testing.T) {
	// Every vertex broadcasts every round: Active is n in every round,
	// nobody ever parks.
	const rounds = 5
	g := clique(6)
	forRunners(t, func(t *testing.T, run func(Config, func(*Ctx) Machine) (*Stats, error)) {
		stats, curve := collectActivity(t, run, Config{Graph: g, Seed: 1}, yieldThen(func(ctx *Ctx, _ StepIn, step int) bool {
			if step == rounds {
				return true
			}
			ctx.BroadcastRec(Rec{A: int64(step)}, 8)
			return false
		}))
		if stats.ActiveSteps != int64(rounds*g.N()) || stats.ParkedSteps != 0 || stats.PeakActive != g.N() {
			t.Fatalf("busy protocol activity = %+v", stats)
		}
		if len(curve) != rounds {
			t.Fatalf("OnRound fired %d times, want %d", len(curve), rounds)
		}
		for i, a := range curve {
			// Every broadcast is delivered: n senders × (n-1) receivers of an
			// 8-bit record per round.
			want := RoundActivity{
				Round: i + 1, Active: g.N(), Parked: 0, Senders: g.N(),
				Delivered: g.N() * (g.N() - 1), DeliveredBits: int64(8 * g.N() * (g.N() - 1)),
			}
			if a != want {
				t.Fatalf("round %d: activity = %+v, want %+v", i+1, a, want)
			}
		}
	})
}

func TestActivityCurveWithParkedVertices(t *testing.T) {
	// Path 0-1-2. Vertex 0 idles for 3 rounds, then pings vertex 1 and
	// retires; vertices 1 and 2 park immediately. The hand-derived curve:
	// round 1 is the initial step of all three vertices (two of them
	// park); rounds 2-3 only vertex 0 runs; round 4 carries the ping,
	// whose delivery unparks vertex 1. The finalization steps after the
	// last completed round (retirements, quiescence release of vertex 2)
	// belong to no round and are not counted.
	want := []RoundActivity{
		{Round: 1, Active: 3, Parked: 2, Senders: 0},
		{Round: 2, Active: 1, Parked: 2, Senders: 0},
		{Round: 3, Active: 1, Parked: 2, Senders: 0},
		{Round: 4, Active: 1, Parked: 1, Senders: 1, Delivered: 1, DeliveredBits: 8},
	}
	forRunners(t, func(t *testing.T, run func(Config, func(*Ctx) Machine) (*Stats, error)) {
		stats, curve := collectActivity(t, run, Config{Graph: path(3), Seed: 1}, func(*Ctx) Machine {
			step := 0
			return machineFunc(func(ctx *Ctx, in StepIn) StepStatus {
				defer func() { step++ }()
				if ctx.ID() != 0 {
					if in.Quiesced {
						return StepDone
					}
					return StepPark
				}
				switch {
				case step == 3:
					ctx.SendRec(1, Rec{A: 9}, 8)
				case step == 4:
					return StepDone
				}
				return StepYield
			})
		})
		if !reflect.DeepEqual(curve, want) {
			t.Fatalf("curve = %+v, want %+v", curve, want)
		}
		if stats.ActiveSteps != 6 || stats.ParkedSteps != 7 || stats.PeakActive != 3 {
			t.Fatalf("aggregates = %+v", stats)
		}
	})
}

func TestActivityIdenticalAcrossModes(t *testing.T) {
	// The chaos protocol mixes yields, parks, sends, and retirement; the
	// activity curve must match the reference like every other statistic.
	matchReference(t, Config{Graph: benchGraph(48), Seed: 7}, func(out []int64) func(*Ctx) Machine {
		return func(*Ctx) Machine { return &chaosWordMachine{out: out, steps: 12} }
	})
}
