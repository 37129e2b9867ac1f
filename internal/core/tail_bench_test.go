package core

import (
	"fmt"
	"testing"

	"distspanner/internal/dist"
	"distspanner/internal/gen"
	"distspanner/internal/graph"
	"distspanner/internal/mds"
)

// Real-algorithm tail benchmarks: the spanner/MDS runs whose late rounds
// leave most vertices parked or retired — the regime the activity-aware
// protocols (parking, delta messaging) target. Custom metrics report
// rounds/sec plus the per-round activity means, so the bench artifact
// records the activity profile alongside the throughput trajectory. The
// rows keep their mode=step names so the committed baselines stay
// comparable across the retirement of the other engines.

// reportTail attaches the shared tail metrics.
func reportTail(b *testing.B, s dist.Stats) {
	b.ReportMetric(float64(s.Rounds)*float64(b.N)/b.Elapsed().Seconds(), "rounds/sec")
	if s.Rounds > 0 {
		b.ReportMetric(float64(s.ActiveSteps)/float64(s.Rounds), "meanActive")
		b.ReportMetric(float64(s.ParkedSteps)/float64(s.Rounds), "meanParked")
	}
}

// benchRuns runs one yardstick row: run b.N times on g, then report the
// tail metrics of the last run.
func benchRuns(b *testing.B, g *graph.Graph, run func(*graph.Graph) (dist.Stats, error)) {
	b.Run(fmt.Sprintf("n=%d/mode=step", g.N()), func(b *testing.B) {
		var stats dist.Stats
		for i := 0; i < b.N; i++ {
			var err error
			if stats, err = run(g); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		reportTail(b, stats)
	})
}

// twoSpannerStats runs the 2-spanner with opts and returns its Stats.
func twoSpannerStats(opts Options) func(*graph.Graph) (dist.Stats, error) {
	return func(g *graph.Graph) (dist.Stats, error) {
		res, err := TwoSpanner(g, opts)
		if err != nil {
			return dist.Stats{}, err
		}
		return res.Stats, nil
	}
}

// BenchmarkTwoSpannerTail runs the weighted 2-spanner on a core+fringe
// instance at n >= 4096.
func BenchmarkTwoSpannerTail(b *testing.B) {
	for _, n := range []int{4096, 8192} {
		benchRuns(b, tailInstance(512, n, 3), twoSpannerStats(Options{Seed: 1}))
	}
}

// BenchmarkTwoSpannerDeepTail stretches the tail with the NoRounding
// ablation (exact-maximum candidacy resolves one small region at a time):
// hundreds of iterations whose rounds touch a few hundred vertices while
// thousands stay parked. Smaller n keeps it benchable; the activity
// profile, not the instance size, is the point.
func BenchmarkTwoSpannerDeepTail(b *testing.B) {
	benchRuns(b, tailInstance(96, 1024, 3), twoSpannerStats(Options{Seed: 1, NoRounding: true}))
}

// BenchmarkTwoSpannerBusy is the tail-less counterweight to the tail
// benchmarks: a uniform sparse G(n, 8/n) where density levels resolve
// nearly in lockstep, so most vertices are active in most rounds and the
// run is dominated by busy phases — the regime that pays the delta
// receivers' per-message decode cost rather than profiting from parking.
// This is the yardstick for the flat-buffer inbox path.
func BenchmarkTwoSpannerBusy(b *testing.B) {
	for _, n := range []int{4096, 8192} {
		benchRuns(b, gen.ConnectedGNP(n, 8.0/float64(n), 1), twoSpannerStats(Options{Seed: 1}))
	}
}

// BenchmarkMDSTail runs the CONGEST MDS on a sparse G(n, 8/n) where
// domination spreads in waves and the covered interior halts or parks.
func BenchmarkMDSTail(b *testing.B) {
	for _, n := range []int{4096, 8192} {
		benchRuns(b, gen.ConnectedGNP(n, 8.0/float64(n), 1), func(g *graph.Graph) (dist.Stats, error) {
			res, err := mds.Run(g, mds.Options{Seed: 1})
			if err != nil {
				return dist.Stats{}, err
			}
			return res.Stats, nil
		})
	}
}
