package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"distspanner/internal/gen"
	"distspanner/internal/graph"
	"distspanner/internal/scenario"
	"distspanner/internal/service"
)

// Offered load of the serve workload, per second. Cold jobs take ~25 ms
// of one worker, so 16/s keeps the two-worker pool ~20% busy: at a
// half-busy pool the two cores of the machine the benchmark was tuned on
// saturated and cold latency medians moved by 2x between runs of one
// seed. Over a 25 s run the counts give every named percentile at least
// ten samples beyond it (hot p99 needs 1000 samples, cold and inline p95
// need 200).
const (
	hotRate    = 100.0
	coldRate   = 16.0
	inlineRate = 10.0

	hotKeys     = 8 // distinct warmed generator jobs
	inlineKeys  = 4 // distinct warmed inline graphs
	inlineN     = 1000
	inlineP     = 0.01 // ~6k edges per inline graph
	cacheBudget = 4096 // the service's default cache size; the plan stays below it
)

// Latency limits for slo_share, per class.
var sloLimit = map[string]time.Duration{
	"hot":    50 * time.Millisecond,
	"inline": 200 * time.Millisecond,
	"cold":   2 * time.Second,
}

// coldKinds are the cold request mix, taken round robin: the dense-graph
// 2-spanner receivers and the directed, CONGEST and MDS machines.
var coldKinds = []struct {
	scenario string
	params   map[string]string
}{
	{"twospanner", map[string]string{"family": "cgnp", "n": "128", "p": "0.15"}},
	{"twospanner-directed", map[string]string{"family": "rdg", "n": "64", "p": "0.15"}},
	{"twospanner-congest", map[string]string{"family": "cgnp", "n": "48", "p": "0.15"}},
	{"mds", map[string]string{"family": "cgnp", "n": "256", "p": "0.05"}},
}

// request is one planned request.
type request struct {
	at    time.Duration // due time after the start of the schedule
	class string        // hot, cold or inline
	key   int           // hot/inline: which warmed job; cold: the cold index
	body  []byte
}

// servePlan is everything the serve workload derives from its seed.
type servePlan struct {
	hot, inline  [][]byte       // warm-up bodies, one per key
	inlineGraphs []*graph.Graph // the inline submissions, for hashing
	cold         []service.JobRequest
	reqs         []request
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // plain structs of strings and numbers always marshal
	}
	return b
}

// makePlan draws the open-loop schedule for the given duration. Hot and inline requests repeat one of a few warmed jobs; every cold
// request is a distinct job. When traced, every other group of cold jobs
// carries the execution-only timing parameter.
func makePlan(seed int64, d time.Duration, traced bool) *servePlan {
	rng := rand.New(rand.NewSource(seed))
	pl := &servePlan{}
	for k := 0; k < hotKeys; k++ {
		pl.hot = append(pl.hot, mustJSON(service.JobRequest{
			Scenario: "twospanner",
			Params:   map[string]string{"family": "cgnp", "n": "48", "p": "0.15"},
			Seed:     seed*hotKeys + int64(k),
		}))
	}
	for k := 0; k < inlineKeys; k++ {
		g := gen.ConnectedGNP(inlineN, inlineP, seed*inlineKeys+int64(k))
		in := &service.InlineGraph{N: g.N()}
		for _, e := range g.Edges() {
			in.Edges = append(in.Edges, [2]int{e.U, e.V})
		}
		pl.inlineGraphs = append(pl.inlineGraphs, g)
		pl.inline = append(pl.inline, mustJSON(service.JobRequest{Scenario: "twospanner", Seed: seed, Graph: in}))
	}

	// Each class sends a fixed number of requests at times drawn
	// uniformly over the run — a Poisson process conditioned on its count,
	// so the offered load is the same for every seed.
	var classes []string
	for _, c := range []struct {
		name string
		rate float64
	}{{"hot", hotRate}, {"cold", coldRate}, {"inline", inlineRate}} {
		for i := 0; i < int(math.Round(c.rate*d.Seconds())); i++ {
			classes = append(classes, c.name)
		}
	}
	rng.Shuffle(len(classes), func(i, j int) { classes[i], classes[j] = classes[j], classes[i] })
	ats := make([]time.Duration, len(classes))
	for i := range ats {
		ats[i] = time.Duration(rng.Int63n(int64(d)))
	}
	sort.Slice(ats, func(i, j int) bool { return ats[i] < ats[j] })
	for i, class := range classes {
		r := request{at: ats[i], class: class}
		switch class {
		case "hot":
			r.key = rng.Intn(hotKeys)
			r.body = pl.hot[r.key]
		case "inline":
			r.key = rng.Intn(inlineKeys)
			r.body = pl.inline[r.key]
		default:
			i := len(pl.cold)
			kind := coldKinds[i%len(coldKinds)]
			params := map[string]string{}
			for k, v := range kind.params {
				params[k] = v
			}
			if traced && (i/len(coldKinds))%2 == 1 {
				params["timing"] = "true"
			}
			job := service.JobRequest{Scenario: kind.scenario, Params: params, Seed: seed<<24 | int64(i)}
			pl.cold = append(pl.cold, job)
			r.key, r.body = i, mustJSON(job)
		}
		pl.reqs = append(pl.reqs, r)
	}
	return pl
}

// serveEnv is a running server and its client.
type serveEnv struct {
	srv    *service.Server
	hs     *http.Server
	client *http.Client
	url    string
	served chan error
	// warm bodies, the reference every later hit must equal
	hotBody, inlineBody [][]byte
}

// h2c is unencrypted HTTP/2: the load runs over one multiplexed
// connection, so an open loop is not limited by a connection pool.
func h2c() *http.Protocols {
	var p http.Protocols
	p.SetUnencryptedHTTP2(true)
	return &p
}

// startServe brings spannerd's handler up on a loopback port and warms
// the hot and inline jobs. That is the serve workload's set-up.
func startServe(pl *servePlan) (*serveEnv, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := service.New(service.Options{Timeout: time.Minute})
	env := &serveEnv{
		srv:    srv,
		hs:     &http.Server{Handler: srv, Protocols: h2c()},
		client: &http.Client{Transport: &http.Transport{Protocols: h2c()}},
		url:    "http://" + ln.Addr().String() + "/v1/run",
		served: make(chan error, 1),
	}
	go func() { env.served <- env.hs.Serve(ln) }()
	warm := func(bodies [][]byte) ([][]byte, error) {
		var out [][]byte
		for _, b := range bodies {
			st, cache, body, err := env.post(b)
			if err != nil || st != http.StatusOK || cache != "miss" {
				return nil, fmt.Errorf("warm-up request: status %d cache %q err %v", st, cache, err)
			}
			out = append(out, body)
		}
		return out, nil
	}
	if env.hotBody, err = warm(pl.hot); err == nil {
		env.inlineBody, err = warm(pl.inline)
	}
	if err != nil {
		env.close()
		return nil, err
	}
	return env, nil
}

func (e *serveEnv) post(body []byte) (status int, cache string, resp []byte, err error) {
	r, err := e.client.Post(e.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, "", nil, err
	}
	defer r.Body.Close()
	resp, err = io.ReadAll(r.Body)
	return r.StatusCode, r.Header.Get("X-Spannerd-Cache"), resp, err
}

// close shuts the server down, waits for in-flight runs, and returns
// once the serving goroutine has exited.
func (e *serveEnv) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := e.hs.Shutdown(ctx)
	e.srv.Drain()
	e.client.CloseIdleConnections()
	if serveErr := <-e.served; !errors.Is(serveErr, http.ErrServerClosed) {
		err = errors.Join(err, serveErr)
	}
	return err
}

// reply is one request's measured outcome.
type reply struct {
	due, sent, done time.Time
	ok              bool
	cache           string
	metrics         scenario.Metrics // cold only
}

func (r reply) latency() time.Duration { return r.done.Sub(r.due) }
func (r reply) late() time.Duration    { return r.sent.Sub(r.due) }

// openLoop sends every request at its due time, whether or not earlier
// ones have finished, and waits for all replies. Latency is measured
// from the due time, so a stalled server or a late generator shows in
// every request behind it. sample, when set, runs at every dispatch.
func (e *serveEnv) openLoop(pl *servePlan, sample func()) []reply {
	replies := make([]reply, len(pl.reqs))
	var wg sync.WaitGroup
	start := time.Now().Add(10 * time.Millisecond)
	for i := range pl.reqs {
		due := start.Add(pl.reqs[i].at)
		time.Sleep(time.Until(due))
		if sample != nil {
			sample()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			rp := reply{due: due, sent: time.Now()}
			st, cache, body, err := e.post(pl.reqs[i].body)
			rp.done = time.Now()
			rp.cache = cache
			rp.ok, rp.metrics = e.check(pl, pl.reqs[i], st, cache, body, err)
			replies[i] = rp
		}()
	}
	wg.Wait()
	return replies
}

// check verifies one reply: hits must be byte-identical to their warm-up
// body and marked hit; cold jobs must be fresh misses whose output the
// scenario verified (valid = 1; MDS, which has no validity column, must
// report a non-empty set no larger than the graph).
func (e *serveEnv) check(pl *servePlan, r request, st int, cache string, body []byte, err error) (bool, scenario.Metrics) {
	if err != nil || st != http.StatusOK {
		return false, nil
	}
	switch r.class {
	case "hot":
		return cache == "hit" && bytes.Equal(body, e.hotBody[r.key]), nil
	case "inline":
		return cache == "hit" && bytes.Equal(body, e.inlineBody[r.key]), nil
	}
	var res service.Result
	if cache != "miss" || json.Unmarshal(body, &res) != nil {
		return false, nil
	}
	m := res.Metrics
	if pl.cold[r.key].Scenario == "mds" {
		return m["size"] >= 1 && m["size"] <= m["n"], m
	}
	return m["valid"] == 1, m
}

// runServe runs the serve workload: set-up, then one open-loop schedule
// of --seconds, then (traced) the per-layer accounting.
func runServe(cfg config) (*outcome, error) {
	pl := makePlan(cfg.seed, cfg.seconds, cfg.traced)
	if n := hotKeys + inlineKeys + len(pl.cold); n > cacheBudget {
		return nil, fmt.Errorf("plan needs %d cache entries, more than the cache's %d", n, cacheBudget)
	}
	env, err := startServe(pl)
	if err != nil {
		return nil, err
	}
	var rec *recorder
	var queueMax int64
	var sample func()
	if cfg.traced {
		rec = newRecorder()
		n := 0
		sample = func() {
			st := env.srv.Stats()
			queueMax = max(queueMax, st.Pool.Queued)
			if n%100 == 0 {
				rec.snapshot(st)
			}
			n++
		}
	}
	before := env.srv.Stats()
	cpu0 := cpuTime()
	t0 := time.Now()
	replies := env.openLoop(pl, sample)
	window := time.Since(t0)
	cpu := cpuTime() - cpu0
	after := env.srv.Stats()
	rec.snapshot(after)
	if err := env.close(); err != nil {
		return nil, fmt.Errorf("server shutdown: %w", err)
	}

	out := &outcome{values: map[string]float64{}}
	lat := map[string][]float64{}
	var late []float64
	inLimit := 0
	for i, rp := range replies {
		r := pl.reqs[i]
		out.attempted++
		if !rp.ok {
			out.fail("%s request %d (key %d): cache %q, reply rejected", r.class, i, r.key, rp.cache)
		} else if rp.latency() <= sloLimit[r.class] {
			inLimit++
		}
		lat[r.class] = append(lat[r.class], rp.latency().Seconds()*1e3)
		late = append(late, rp.late().Seconds()*1e3)
		if rec != nil {
			id := rec.add("serve.request", -1, rp.due, rp.done, map[string]string{"class": r.class, "cache": rp.cache, "ok": strconv.FormatBool(rp.ok)})
			rec.add("loadgen.late", id, rp.due, rp.sent, nil)
		}
	}
	for k, kind := range coldKinds {
		var xs []float64
		for i, rp := range replies {
			if r := pl.reqs[i]; r.class == "cold" && r.key%len(coldKinds) == k {
				xs = append(xs, rp.latency().Seconds()*1e3)
			}
		}
		out.printf("cold %-20s n=%4d p50 %.4f ms", kind.scenario, len(xs), median(xs))
	}
	out.values["latency_s"] = windowedMedian(pl, replies, "hot", cfg.seconds)
	out.values["slo_share"] = float64(inLimit) / float64(out.attempted)
	out.values["cpu_s"] = cpu.Seconds() / float64(len(replies))
	out.printf("workload serve seed %d: %d requests over %.1f s (hot %d, cold %d, inline %d)",
		cfg.seed, len(replies), window.Seconds(), len(lat["hot"]), len(lat["cold"]), len(lat["inline"]))
	named := map[string]float64{"hot": 99, "cold": 95, "inline": 95}
	for _, class := range []string{"hot", "cold", "inline"} {
		xs := lat[class]
		p50, tail := quantile(xs, 0.5), quantile(xs, named[class]/100)
		out.values["serve."+class+"_p50_ms"] = p50
		out.values[fmt.Sprintf("serve.%s_p%g_ms", class, named[class])] = tail
		hp, ok := highestTail(len(xs))
		note := ""
		if !ok || hp < named[class] {
			note = fmt.Sprintf(" (too few samples: p%g has fewer than 10 beyond it)", named[class])
		}
		out.printf("serve_%s_p50_ms %.4f ms  serve_%s_p%g_ms %.4f ms  n=%d, highest tail with >=10 beyond: p%g = %.4f ms%s",
			class, p50, class, named[class], tail, len(xs), hp, quantile(xs, hp/100), note)
	}
	out.printf("serve_slo_share %.4f (%d of %d within %v/%v/%v hot/inline/cold)", out.values["slo_share"], inLimit, out.attempted,
		sloLimit["hot"], sloLimit["inline"], sloLimit["cold"])
	out.printf("loadgen late p50 %.4f ms, p99 %.4f ms", quantile(late, 0.5), quantile(late, 0.99))
	if !cfg.traced {
		return out, nil
	}

	out.values["loadgen.late_p99_ms"] = quantile(late, 0.99)
	out.values["proc.cpu_s"] = out.values["cpu_s"]
	var server []float64
	for _, rp := range replies {
		server = append(server, rp.done.Sub(rp.sent).Seconds())
	}
	out.values["job.unattributed_s"] = median(server)
	serviceMetrics(out, pl, replies, before, after, window, queueMax)
	if err := serveLayers(out, rec, pl, replies); err != nil {
		return nil, err
	}
	path := filepath.Join(spansDir, fmt.Sprintf("serve-seed%d.json", cfg.seed))
	if err := rec.write(path, map[string]any{"workload": "serve", "seed": cfg.seed}); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	self := selfByName(rec.spans, -1)
	out.printf("self time over all requests: server+network %.4f s, generator lateness %.4f s", self["serve.request"], self["loadgen.late"])
	out.printf("spans: %s (%d spans, %d stats snapshots)", path, len(rec.spans), len(rec.stats))
	return out, nil
}

// serviceMetrics derives the service layer's metrics from the counter
// deltas over the timed window and the cold replies.
func serviceMetrics(out *outcome, pl *servePlan, replies []reply, before, after service.Stats, window time.Duration, queueMax int64) {
	execs := float64(after.Pool.Executions - before.Pool.Executions)
	runNs := float64(after.Pool.RunNanos - before.Pool.RunNanos)
	if execs > 0 {
		out.values["service.run_ms_mean"] = runNs / execs / 1e6
	}
	// Mean against mean: the cold kinds' run times differ by 5x, so the
	// pooled median latency minus the mean run time has no meaning.
	var cold []float64
	for i, rp := range replies {
		if pl.reqs[i].class == "cold" {
			cold = append(cold, rp.latency().Seconds()*1e3)
		}
	}
	out.values["service.cold_overhead_ms"] = mean(cold) - out.values["service.run_ms_mean"]
	out.values["service.pool_busy_share"] = runNs / (float64(window.Nanoseconds()) * float64(after.Pool.Workers))
	out.values["service.queue_max"] = float64(queueMax)
	hits := float64(after.Cache.Hits - before.Cache.Hits)
	if lookups := hits + float64(after.Cache.Misses-before.Cache.Misses); lookups > 0 {
		out.values["service.hit_ratio"] = hits / lookups
	}
	out.values["service.coalesced"] = float64(after.Flights.Coalesced - before.Flights.Coalesced)
	out.values["service.evictions"] = float64(after.Cache.Evictions - before.Cache.Evictions)

	var hashMs []float64
	for _, g := range pl.inlineGraphs {
		for i := 0; i < 10; i++ {
			t0 := time.Now()
			service.GraphHash(g)
			hashMs = append(hashMs, time.Since(t0).Seconds()*1e3)
		}
	}
	out.values["service.graph_hash_ms"] = median(hashMs)

	// Engine time split of the cold jobs that carried timing, and the
	// latency those paid over the ones that did not: the tracing overhead.
	var step, route, sync []float64
	var timed, untimed []float64
	for i, rp := range replies {
		r := pl.reqs[i]
		if r.class != "cold" || rp.metrics == nil {
			continue
		}
		if _, ok := pl.cold[r.key].Params["timing"]; !ok {
			untimed = append(untimed, rp.latency().Seconds())
			continue
		}
		timed = append(timed, rp.latency().Seconds())
		step = append(step, rp.metrics["time_share_step"])
		route = append(route, rp.metrics["time_share_route"])
		sync = append(sync, rp.metrics["time_share_sync"])
	}
	out.values["service.time_share_step"] = mean(step)
	out.values["service.time_share_route"] = mean(route)
	out.values["service.time_share_sync"] = mean(sync)
	out.values["trace.overhead_s"] = quantile(timed, 0.5) - quantile(untimed, 0.5)
}

// decomposedCold is how many cold jobs of each kind the traced run redoes
// layer by layer after the timed window.
const decomposedCold = 4

// serveLayers redoes a sample of the cold jobs outside the server — the
// scenario's Run, then its graph build, engine run and verification as
// separate calls — to give the cold mix's per-layer split, and checks
// the direct runs agree with what the server answered.
func serveLayers(out *outcome, rec *recorder, pl *servePlan, replies []reply) error {
	coldReply := map[int]reply{}
	for i, rp := range replies {
		if pl.reqs[i].class == "cold" {
			coldReply[pl.reqs[i].key] = rp
		}
	}
	per := map[string][]float64{}
	add := func(k string, v float64) { per[k] = append(per[k], v) }
	var rounds, msgs, bits, active float64
	for i := 0; i < decomposedCold*len(coldKinds) && i < len(pl.cold); i++ {
		job := pl.cold[i]
		sc, ok := scenario.Get(job.Scenario)
		if !ok {
			return fmt.Errorf("unknown scenario %q", job.Scenario)
		}
		p := sc.Defaults.Merge(scenario.Params(job.Params))
		delete(p, "timing")
		root := rec.open("decompose", -1)
		t0 := time.Now()
		m, err := sc.Run(p, job.Seed, nil)
		runWall := time.Since(t0)
		rec.add("scenario.run", root, t0, t0.Add(runWall), map[string]string{"scenario": job.Scenario})
		lr, lerr := decompose(rec, root, job.Scenario, p, job.Seed)
		rec.close(root)
		out.attempted++
		served, answered := coldReply[i]
		switch {
		case err != nil || lerr != nil:
			out.fail("cold job %d redone directly: %v %v", i, err, lerr)
			continue
		case answered && served.metrics != nil && (!statsMatch(served.metrics, lr.stats) || digestMetrics(served.metrics) != digestMetrics(m)):
			out.fail("cold job %d: served metrics differ from a direct run", i)
			continue
		}
		add("gen.build_s", lr.build.Seconds())
		add("span.verify_s", lr.verify.Seconds())
		add("core.self_s", (lr.engine - lr.phases.step - lr.phases.route - lr.phases.sync).Seconds())
		add("dist.step_s", lr.phases.step.Seconds())
		add("dist.route_s", lr.phases.route.Seconds())
		add("dist.sync_s", lr.phases.sync.Seconds())
		add("dist.round_wall_max_s", lr.phases.wallMax.Seconds())
		add("scenario.self_s", (runWall - lr.build - lr.engine - lr.verify).Seconds())
		addMem(add, lr.mem)
		rounds += float64(lr.stats.Rounds)
		msgs += float64(lr.stats.Messages)
		bits += float64(lr.stats.TotalBits)
		active += float64(lr.stats.ActiveSteps)
	}
	for k, vs := range per {
		out.values[k] = median(vs)
	}
	out.values["dist.rounds"], out.values["dist.messages"] = rounds, msgs
	out.values["dist.total_bits"], out.values["dist.active_steps"] = bits, active
	return nil
}

// latencyWindows is how many consecutive slices of the schedule the
// serve run's latency_s is the median of.
const latencyWindows = 6

// windowedMedian splits the schedule by due time into latencyWindows
// equal slices and returns the median over slices of each slice's median
// latency (seconds) of the class's requests, so a stall of the machine
// confined to one slice moves the figure little.
func windowedMedian(pl *servePlan, replies []reply, class string, d time.Duration) float64 {
	slices := make([][]float64, latencyWindows)
	for i, rp := range replies {
		if pl.reqs[i].class != class {
			continue
		}
		w := min(int(int64(pl.reqs[i].at)*latencyWindows/int64(d)), latencyWindows-1)
		slices[w] = append(slices[w], rp.latency().Seconds())
	}
	var meds []float64
	for _, xs := range slices {
		if len(xs) > 0 {
			meds = append(meds, median(xs))
		}
	}
	return median(meds)
}
