package scenario

import (
	"math/rand"
	"reflect"
	"strconv"
	"testing"

	"distspanner/internal/dist"
)

// TestCrossModeScenarioEquivalence is the observation-invariance check
// at the workload level: the same (scenario, cell, seed) run plain and
// run with a live observer attached through the execution-only "obs"
// parameter — which switches the engine onto its metered-delivery path
// and fires the round hook — must produce identical metrics: same
// spanner/dominating-set size, same round count, same metered bits, bit
// for bit. The observer must see exactly the reported rounds. Cells and
// seeds are randomized so every run exercises fresh instances; any
// divergence is an engine bug, not a flaky workload.
func TestCrossModeScenarioEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(20260730))
	cases := []struct {
		scenario string
		cell     func() Params
	}{
		{"twospanner", func() Params {
			return Params{
				"n": strconv.Itoa(24 + rng.Intn(40)),
				"p": []string{"0.1", "0.15", "0.25"}[rng.Intn(3)],
			}
		}},
		{"twospanner-congest", func() Params {
			return Params{"n": strconv.Itoa(12 + rng.Intn(12))}
		}},
		{"twospanner-directed", func() Params {
			return Params{"n": strconv.Itoa(12 + rng.Intn(12)), "p": "0.2"}
		}},
		{"twospanner-weighted", func() Params {
			return Params{"n": strconv.Itoa(20 + rng.Intn(16)), "whi": "16"}
		}},
		{"twospanner-cs", func() Params {
			return Params{"n": strconv.Itoa(20 + rng.Intn(16))}
		}},
		{"mds", func() Params {
			return Params{
				"family": []string{"cgnp", "expander"}[rng.Intn(2)],
				"n":      strconv.Itoa(16 + rng.Intn(24)),
			}
		}},
	}
	for _, tc := range cases {
		sc, ok := Get(tc.scenario)
		if !ok {
			t.Fatalf("scenario %q not registered", tc.scenario)
		}
		for rep := 0; rep < 3; rep++ {
			cell := tc.cell()
			seed := rng.Int63()
			p := sc.Defaults.Merge(cell)
			plain, err := sc.Run(p, seed, nil)
			if err != nil {
				t.Fatalf("%s %v seed %d: %v", tc.scenario, cell, seed, err)
			}
			observed := 0
			token, release := RegisterObserver(func(dist.RoundActivity) { observed++ })
			watched, err := sc.Run(p.Merge(Params{"obs": token}), seed, nil)
			release()
			if err != nil {
				t.Fatalf("%s %v seed %d observed: %v", tc.scenario, cell, seed, err)
			}
			if !reflect.DeepEqual(plain, watched) {
				t.Fatalf("%s %v seed %d: metrics diverge under observation:\nplain:    %v\nobserved: %v",
					tc.scenario, cell, seed, plain, watched)
			}
			if float64(observed) != plain["rounds"] {
				t.Fatalf("%s %v seed %d: observer saw %d rounds, metrics report %v",
					tc.scenario, cell, seed, observed, plain["rounds"])
			}
		}
	}
}
