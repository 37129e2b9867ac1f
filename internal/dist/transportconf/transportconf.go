// Package transportconf is the conformance suite a dist.CoordTransport
// implementation must pass — and, through its reference column, the
// check that the in-process step engine itself is right. A conformant
// transport is invisible: a distributed run over it reproduces the
// in-process step engine bit-for-bit — identical per-vertex trace digests, identical Stats
// (message/bit metering included), identical merged outputs — across
// every algorithm family in the distrun registry, and it quiesces,
// cancels, and aborts exactly where the local engine does.
//
// Call Run with a Factory that builds a connected cluster whose
// workers serve distrun.Resolver(). The package's own tests run the
// suite against the in-process channel transport and verify the suite
// detects deliberately broken transports (record duplication and
// reordering fixtures); the wire package runs it against TCP.
package transportconf

import (
	"errors"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"distspanner/internal/dist"
	"distspanner/internal/distrun"
	"distspanner/internal/gen"
	"distspanner/internal/graph"
	"distspanner/internal/trace"
)

// Factory builds a connected cluster with the given number of workers,
// each serving distrun.Resolver(). The returned wait must tear the
// cluster down, block until every worker has exited (failing tb if
// that takes unreasonably long), and return each worker's ServeShard
// error by slot; the suite decides which errors a case permits.
type Factory func(tb testing.TB, workers int) (dist.CoordTransport, func() []error)

// joinClean tears the cluster down and fails t on any worker error
// that is not a coordinator-initiated hangup.
func joinClean(t *testing.T, wait func() []error) {
	t.Helper()
	for i, err := range wait() {
		if err != nil && !errors.Is(err, dist.ErrTransport) {
			t.Errorf("worker %d exited with %v", i, err)
		}
	}
}

// namedGraph pairs a conformance graph with its subtest label; the suite
// iterates the slice so subtest order (and any shared-cluster scheduling
// it implies) is deterministic — a map here made the matrix order vary
// run to run.
type namedGraph struct {
	name string
	g    *graph.Graph
}

// suiteGraphs is the conformance graph matrix — the same trio the
// trace-level engine-vs-reference tests pin.
func suiteGraphs() []namedGraph {
	return []namedGraph{
		{"gnp48", gen.ConnectedGNP(48, 0.15, 1)},
		{"clique12", gen.Clique(12)},
		{"grid6", gen.Grid(6, 6)},
	}
}

// suiteGraph returns the named graph from the matrix.
func suiteGraph(name string) *graph.Graph {
	for _, ng := range suiteGraphs() {
		if ng.name == name {
			return ng.g
		}
	}
	panic("transportconf: unknown suite graph " + name)
}

var suiteSeeds = []int64{1, 2}

// outcome is one run's observable surface: what conformance compares.
type outcome struct {
	stats   dist.Stats
	outputs [][]int
	digest  trace.Digest
	phases  []dist.RoundActivity
	err     error
}

// runner is one in-process execution of the round semantics:
// dist.RunMachines (the step engine) or dist.RunReference.
type runner func(dist.Config, func(*dist.Ctx) dist.Machine) (*dist.Stats, error)

// runLocal executes cfg (which must have come from Family.CoordConfig,
// possibly with extra hooks set) in-process under run.
func runLocal(run runner, f distrun.Family, cfg dist.CoordConfig) outcome {
	prog, local, err := f.Local(cfg.Graph, cfg.Seed)
	if err != nil {
		return outcome{err: err}
	}
	rec := trace.NewRecorder(cfg.Graph.N())
	local.Bandwidth, local.Enforce = cfg.Bandwidth, cfg.Enforce
	local.MaxRounds, local.CutSide = cfg.MaxRounds, cfg.CutSide
	local.Cancel, local.OnRound, local.Tracer = cfg.Cancel, cfg.OnRound, rec
	stats, err := run(local, prog.Factory)
	if err != nil {
		return outcome{err: err}
	}
	return outcome{stats: *stats, outputs: distrun.Outputs(prog, cfg.Graph.N()), digest: rec.Digest(), phases: rec.Phases()}
}

// aborts are the abort paths every family is diffed on, engine against
// reference: a round limit, a cancellation from the round hook after
// round 2, and an enforced one-bit budget — each early enough that every
// family in the matrix hits it. apply builds a fresh configuration per
// run (each gets its own cancel).
var aborts = []struct {
	want  error
	apply func(dist.CoordConfig) dist.CoordConfig
}{
	{dist.ErrRoundLimit, func(c dist.CoordConfig) dist.CoordConfig { c.MaxRounds = 3; return c }},
	{dist.ErrCanceled, func(c dist.CoordConfig) dist.CoordConfig {
		cancel := make(chan struct{})
		c.Cancel = cancel
		c.OnRound = func(a dist.RoundActivity) {
			if a.Round == 2 {
				close(cancel)
			}
		}
		return c
	}},
	{dist.ErrBandwidth, func(c dist.CoordConfig) dist.CoordConfig { c.Bandwidth, c.Enforce = 1, true; return c }},
}

// runDistributed executes cfg over ct, collecting the replayed
// transcript.
func runDistributed(ct dist.CoordTransport, cfg dist.CoordConfig) outcome {
	rec := trace.NewRecorder(cfg.Graph.N())
	cfg.Tracer = rec
	cfg.Collect = true
	res, err := dist.Coordinate(ct, cfg)
	if err != nil {
		return outcome{err: err}
	}
	return outcome{stats: res.Stats, outputs: res.Outputs, digest: rec.Digest(), phases: rec.Phases()}
}

// compare fails t on any observable divergence between the reference
// and the compared outcome. It is the definition of conformance.
func compare(t *testing.T, ref, got outcome) {
	t.Helper()
	if ref.err != nil || got.err != nil {
		refMsg, gotMsg := errString(ref.err), errString(got.err)
		if refMsg != gotMsg {
			t.Errorf("error mismatch:\n  reference: %s\n  got:       %s", refMsg, gotMsg)
		}
		return
	}
	if !ref.digest.Equal(got.digest) {
		v := -1
		for i := range ref.digest.Vertex {
			if ref.digest.Vertex[i] != got.digest.Vertex[i] {
				v = i
				break
			}
		}
		t.Errorf("trace digest mismatch: run %s vs %s (first divergent vertex %d)",
			ref.digest.Run, got.digest.Run, v)
	}
	if ref.stats != got.stats {
		t.Errorf("stats mismatch:\n  reference: %+v\n  got:       %+v", ref.stats, got.stats)
	}
	if !equalOutputs(ref.outputs, got.outputs) {
		t.Errorf("outputs mismatch:\n  reference: %v\n  got:       %v", ref.outputs, got.outputs)
	}
	if !reflect.DeepEqual(ref.phases, got.phases) {
		t.Errorf("round-activity mismatch:\n  reference: %+v\n  got:       %+v", ref.phases, got.phases)
	}
}

func errString(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// equalOutputs treats nil and empty per-vertex slices as equal: the
// wire codec does not distinguish them.
func equalOutputs(a, b [][]int) bool {
	if len(a) != len(b) {
		return false
	}
	for v := range a {
		if len(a[v]) != len(b[v]) {
			return false
		}
		for i := range a[v] {
			if a[v][i] != b[v][i] {
				return false
			}
		}
	}
	return true
}

// Run executes the conformance suite against the transport built by
// newCluster.
func Run(t *testing.T, newCluster Factory) {
	t.Run("Equivalence", func(t *testing.T) { equivalence(t, newCluster) })
	t.Run("WorkerCounts", func(t *testing.T) { workerCounts(t, newCluster) })
	t.Run("CutMetering", func(t *testing.T) { cutMetering(t, newCluster) })
	t.Run("IdleQuiescence", func(t *testing.T) { idleQuiescence(t, newCluster) })
	t.Run("Cancellation", func(t *testing.T) { cancellation(t, newCluster) })
	t.Run("RoundLimit", func(t *testing.T) { roundLimit(t, newCluster) })
	t.Run("UnknownAlgo", func(t *testing.T) { unknownAlgo(t, newCluster) })
}

// equivalence pins the headline property: for every (family, graph,
// seed) in the matrix, the in-process step engine is bit-identical to
// the reference interpreter — on the finished run and on every abort
// path — and a 2-worker distributed run is bit-identical to both.
func equivalence(t *testing.T, newCluster Factory) {
	graphs := suiteGraphs()
	for _, name := range distrun.Names() {
		f, _ := distrun.Get(name)
		for _, ng := range graphs {
			for _, seed := range suiteSeeds {
				t.Run(name+"/"+ng.name+"/"+itoa(seed), func(t *testing.T) {
					cfg := f.CoordConfig(ng.g, seed)
					ref := runLocal(dist.RunReference, f, cfg)
					if ref.err != nil {
						t.Fatalf("reference run failed: %v", ref.err)
					}
					compare(t, ref, runLocal(dist.RunMachines, f, cfg))
					for _, ab := range aborts {
						aref := runLocal(dist.RunReference, f, ab.apply(cfg))
						if !errors.Is(aref.err, ab.want) {
							t.Fatalf("reference run aborted with %v, want %v", aref.err, ab.want)
						}
						compare(t, aref, runLocal(dist.RunMachines, f, ab.apply(cfg)))
					}
					ct, wait := newCluster(t, 2)
					defer joinClean(t, wait)
					compare(t, ref, runDistributed(ct, cfg))
				})
			}
		}
	}
}

// workerCounts pins shard-count invariance on the transport: the same
// instance over 1, 2, 3, and 5 workers produces the same transcript.
func workerCounts(t *testing.T, newCluster Factory) {
	g := suiteGraph("gnp48")
	f, _ := distrun.Get("twospanner")
	cfg := f.CoordConfig(g, 1)
	ref := runLocal(dist.RunMachines, f, cfg)
	if ref.err != nil {
		t.Fatalf("reference run failed: %v", ref.err)
	}
	for _, w := range []int{1, 2, 3, 5} {
		t.Run(itoa(int64(w)), func(t *testing.T) {
			ct, wait := newCluster(t, w)
			defer joinClean(t, wait)
			compare(t, ref, runDistributed(ct, cfg))
		})
	}
}

// cutMetering pins Stats.CutBits — in-process against the reference
// interpreter, and over the wire: the coordinator's cut assignment
// reaches the workers and their metering folds back.
func cutMetering(t *testing.T, newCluster Factory) {
	g := suiteGraph("grid6")
	cut := make([]bool, g.N())
	for v := g.N() / 2; v < g.N(); v++ {
		cut[v] = true
	}
	f, _ := distrun.Get("twospanner")
	cfg := f.CoordConfig(g, 1)
	cfg.CutSide = cut
	ref := runLocal(dist.RunMachines, f, cfg)
	if ref.err != nil {
		t.Fatalf("reference run failed: %v", ref.err)
	}
	if ref.stats.CutBits == 0 {
		t.Fatal("cut fixture meters no cut traffic; pick a different cut")
	}
	compare(t, runLocal(dist.RunReference, f, cfg), ref)
	ct, wait := newCluster(t, 3)
	defer joinClean(t, wait)
	compare(t, ref, runDistributed(ct, cfg))
}

// idleQuiescence pins the quiescence protocol with mostly idle
// populations: all but two vertices are isolated and park immediately,
// so two of the three shards contribute nothing. The run must still
// terminate with the reference transcript.
func idleQuiescence(t *testing.T, newCluster Factory) {
	g := graph.New(42)
	g.AddEdge(0, 1)
	f, _ := distrun.Get("twospanner")
	cfg := f.CoordConfig(g, 1)
	ref := runLocal(dist.RunMachines, f, cfg)
	if ref.err != nil {
		t.Fatalf("reference run failed: %v", ref.err)
	}
	ct, wait := newCluster(t, 3)
	defer joinClean(t, wait)
	done := make(chan outcome, 1)
	go func() { done <- runDistributed(ct, cfg) }()
	select {
	case got := <-done:
		compare(t, ref, got)
	case <-time.After(30 * time.Second):
		t.Fatal("idle-population run did not quiesce within 30s")
	}
}

// cancellation pins clean cancellation: a pre-closed Cancel channel
// aborts the run with the local engine's exact error, the transcript
// stays empty (no partial round), and the cluster tears down.
func cancellation(t *testing.T, newCluster Factory) {
	g := suiteGraph("clique12")
	f, _ := distrun.Get("twospanner")
	cancel := make(chan struct{})
	close(cancel)
	cfg := f.CoordConfig(g, 1)
	cfg.Cancel = cancel

	ref := runLocal(dist.RunMachines, f, cfg)
	if !errors.Is(ref.err, dist.ErrCanceled) {
		t.Fatalf("reference cancellation error = %v", ref.err)
	}

	ct, wait := newCluster(t, 2)
	defer joinClean(t, wait)
	rec := trace.NewRecorder(g.N())
	cfg.Tracer = rec
	done := make(chan error, 1)
	go func() {
		_, err := dist.Coordinate(ct, cfg)
		done <- err
	}()
	var err error
	select {
	case err = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("cancellation did not surface within 30s")
	}
	if !errors.Is(err, dist.ErrCanceled) {
		t.Fatalf("distributed cancellation error = %v", err)
	}
	if err.Error() != ref.err.Error() {
		t.Errorf("cancellation error mismatch:\n  reference:   %s\n  distributed: %s", ref.err, err)
	}
	if rec.EventCount() != 0 || len(rec.Phases()) != 0 {
		t.Errorf("canceled run left a partial transcript: %d events, %d phases",
			rec.EventCount(), len(rec.Phases()))
	}
}

// roundLimit pins abort-path equality: the distributed run hits
// MaxRounds with the local engine's exact error text.
func roundLimit(t *testing.T, newCluster Factory) {
	g := suiteGraph("clique12")
	f, _ := distrun.Get("twospanner")
	cfg := f.CoordConfig(g, 1)
	cfg.MaxRounds = 2
	ref := runLocal(dist.RunMachines, f, cfg)
	if !errors.Is(ref.err, dist.ErrRoundLimit) {
		t.Fatalf("reference round-limit error = %v", ref.err)
	}
	ct, wait := newCluster(t, 2)
	defer joinClean(t, wait)
	got := runDistributed(ct, cfg)
	if !errors.Is(got.err, dist.ErrRoundLimit) {
		t.Fatalf("distributed round-limit error = %v", got.err)
	}
	if got.err.Error() != ref.err.Error() {
		t.Errorf("round-limit error mismatch:\n  reference:   %s\n  distributed: %s", ref.err, got.err)
	}
}

// unknownAlgo pins resolver-failure propagation: a family name the
// workers cannot resolve surfaces as a ShardError, not a hang.
func unknownAlgo(t *testing.T, newCluster Factory) {
	g := suiteGraph("clique12")
	ct, wait := newCluster(t, 2)
	defer func() {
		for i, werr := range wait() {
			if werr != nil && !errors.Is(werr, dist.ErrTransport) &&
				!strings.Contains(werr.Error(), "unknown family") {
				t.Errorf("worker %d exited with %v", i, werr)
			}
		}
	}()
	done := make(chan error, 1)
	go func() {
		_, err := dist.Coordinate(ct, dist.CoordConfig{Graph: g, Seed: 1, Algo: "no-such-family"})
		done <- err
	}()
	var err error
	select {
	case err = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("unknown-algo run did not fail within 30s")
	}
	var se *dist.ShardError
	if !errors.As(err, &se) {
		t.Fatalf("unknown algo error = %v, want ShardError", err)
	}
}

func itoa(v int64) string { return strconv.FormatInt(v, 10) }

// ChanFactory builds in-process channel clusters — the reference
// transport the suite itself is validated against.
func ChanFactory(tb testing.TB, workers int) (dist.CoordTransport, func() []error) {
	ct, wts := dist.NewChanCluster(workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for i, wt := range wts {
		wg.Add(1)
		go func(i int, wt dist.WorkerTransport) {
			defer wg.Done()
			errs[i] = dist.ServeShard(wt, distrun.Resolver())
		}(i, wt)
	}
	wait := func() []error {
		ct.Close()
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			tb.Fatal("workers did not exit within 30s of coordinator close")
		}
		return errs
	}
	return ct, wait
}
