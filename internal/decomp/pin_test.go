package decomp

import (
	"fmt"
	"reflect"
	"testing"

	"distspanner/internal/dist"
	"distspanner/internal/gen"
	"distspanner/internal/graph"
)

// TestDistributedLinialSaksPinned pins the exact decomposition and
// engine statistics of the message-passing Linial-Saks on three small
// graphs and two seeds each. The values are literal: a change to how
// the protocol is expressed (payload family, engine) must keep every
// vertex's RNG draws, cluster, color, and bit count where they are.
func TestDistributedLinialSaksPinned(t *testing.T) {
	graphs := []struct {
		name string
		g    *graph.Graph
	}{
		{"gnp", gen.ConnectedGNP(14, 0.25, 3)},
		{"grid", gen.Grid(3, 4)},
		{"cycle", gen.Cycle(10)},
	}
	want := map[string]struct {
		cluster, color []int
		stats          dist.Stats
	}{
		"gnp/1": {
			cluster: []int{11, 11, 11, 11, 11, 11, 11, 11, 11, 11, 11, 11, 12, 13},
			color:   []int{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 3, 4},
			stats:   dist.Stats{Rounds: 55, Messages: 259, TotalBits: 4654, MaxMessageBits: 52, MaxEdgeRoundBits: 52, ActiveSteps: 244, PeakActive: 14},
		},
		"gnp/2": {
			cluster: []int{13, 13, 13, 13, 13, 13, 13, 13, 13, 13, 13, 13, 13, 13},
			color:   []int{0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0},
			stats:   dist.Stats{Rounds: 11, Messages: 199, TotalBits: 2614, MaxMessageBits: 40, MaxEdgeRoundBits: 40, ActiveSteps: 154, PeakActive: 14},
		},
		"grid/1": {
			cluster: []int{5, 5, 5, 11, 4, 5, 11, 11, 8, 11, 11, 11},
			color:   []int{1, 1, 1, 0, 6, 1, 0, 0, 1, 0, 0, 0},
			stats:   dist.Stats{Rounds: 77, Messages: 148, TotalBits: 2146, MaxMessageBits: 28, MaxEdgeRoundBits: 28, ActiveSteps: 264, PeakActive: 12},
		},
		"grid/2": {
			cluster: []int{1, 1, 6, 7, 9, 9, 6, 7, 9, 9, 10, 11},
			color:   []int{0, 0, 2, 0, 1, 1, 6, 2, 1, 2, 1, 0},
			stats:   dist.Stats{Rounds: 77, Messages: 107, TotalBits: 1310, MaxMessageBits: 28, MaxEdgeRoundBits: 28, ActiveSteps: 319, PeakActive: 12},
		},
		"cycle/1": {
			cluster: []int{9, 9, 3, 3, 5, 5, 6, 9, 9, 9},
			color:   []int{0, 0, 1, 1, 0, 1, 2, 0, 0, 0},
			stats:   dist.Stats{Rounds: 33, Messages: 54, TotalBits: 588, MaxMessageBits: 28, MaxEdgeRoundBits: 28, ActiveSteps: 174, PeakActive: 10},
		},
		"cycle/2": {
			cluster: []int{1, 1, 4, 4, 4, 5, 7, 7, 9, 9},
			color:   []int{0, 0, 1, 1, 4, 1, 0, 0, 1, 1},
			stats:   dist.Stats{Rounds: 55, Messages: 44, TotalBits: 404, MaxMessageBits: 16, MaxEdgeRoundBits: 16, ActiveSteps: 218, PeakActive: 10},
		},
	}
	for _, tc := range graphs {
		for _, seed := range []int64{1, 2} {
			key := fmt.Sprintf("%s/%d", tc.name, seed)
			d, stats, err := DistributedLinialSaks(tc.g, seed)
			if err != nil {
				t.Fatal(err)
			}
			w, ok := want[key]
			if !ok || !reflect.DeepEqual(d.Cluster, w.cluster) || !reflect.DeepEqual(d.Color, w.color) || *stats != w.stats {
				t.Errorf("%s: got cluster %#v color %#v stats %#v", key, d.Cluster, d.Color, *stats)
			}
		}
	}
}
