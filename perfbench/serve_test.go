package main

import (
	"bytes"
	"math"
	"net"
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"distspanner/internal/scenario"
)

func TestPlanIsAFunctionOfTheSeed(t *testing.T) {
	a := makePlan(7, 3*time.Second, false)
	b := makePlan(7, 3*time.Second, false)
	if len(a.reqs) == 0 || len(a.reqs) != len(b.reqs) {
		t.Fatalf("plan sizes %d and %d", len(a.reqs), len(b.reqs))
	}
	for i := range a.reqs {
		ra, rb := a.reqs[i], b.reqs[i]
		if ra.at != rb.at || ra.class != rb.class || ra.key != rb.key || !bytes.Equal(ra.body, rb.body) {
			t.Fatalf("request %d differs between two plans from seed 7", i)
		}
	}
	for k := range a.inlineGraphs {
		if !sameEdges(a.inlineGraphs[k].Edges(), b.inlineGraphs[k].Edges()) {
			t.Fatalf("inline graph %d differs between two plans from seed 7", k)
		}
	}
	c := makePlan(8, 3*time.Second, false)
	if len(c.reqs) == len(a.reqs) && bytes.Equal(c.reqs[0].body, a.reqs[0].body) && c.reqs[0].at == a.reqs[0].at {
		t.Error("seed 8 gives the same schedule as seed 7")
	}
}

func TestPlanColdJobsAreDistinct(t *testing.T) {
	pl := makePlan(3, 5*time.Second, true)
	seen := map[string]bool{}
	timed := 0
	for _, j := range pl.cold {
		k := j.Scenario + string(mustJSON(j.Params)) + string(mustJSON(j.Seed))
		if seen[k] {
			t.Fatalf("cold job repeated: %s", k)
		}
		seen[k] = true
		if _, ok := j.Params["timing"]; ok {
			timed++
		}
	}
	if timed == 0 || timed == len(pl.cold) {
		t.Errorf("traced plan: %d of %d cold jobs carry timing, want some but not all", timed, len(pl.cold))
	}
	if n := hotKeys + inlineKeys + len(pl.cold); n > cacheBudget {
		t.Errorf("plan needs %d cache entries", n)
	}
}

func TestGNPGraphIsAFunctionOfTheSeed(t *testing.T) {
	_, p := gnpCell()
	p = p.Merge(scenario.Params{"n": "300"})
	a, err := scenario.GraphSpec{}.Build(p, 5)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := scenario.GraphSpec{}.Build(p, 5)
	c, _ := scenario.GraphSpec{}.Build(p, 6)
	if !sameEdges(a.Edges(), b.Edges()) {
		t.Error("seed 5 gives two different graphs")
	}
	if sameEdges(a.Edges(), c.Edges()) {
		t.Error("seeds 5 and 6 give the same graph")
	}
}

func sameEdges[E comparable](a, b []E) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// stubEnv serves every request with a fixed hit body after an optional
// per-request delay, over the same h2c transport the benchmark uses.
func stubEnv(t *testing.T, delay func(n int) time.Duration) (*serveEnv, []byte) {
	t.Helper()
	body := []byte(`{"ok":true}`)
	var calls atomic.Int32
	handler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(delay(int(calls.Add(1)) - 1))
		w.Header().Set("X-Spannerd-Cache", "hit")
		w.Write(body)
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: handler, Protocols: h2c()}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	env := &serveEnv{
		hs:      hs,
		client:  &http.Client{Transport: &http.Transport{Protocols: h2c()}},
		url:     "http://" + ln.Addr().String() + "/v1/run",
		served:  served,
		hotBody: [][]byte{body},
	}
	t.Cleanup(func() {
		hs.Close()
		env.client.CloseIdleConnections()
		<-served
	})
	return env, body
}

func hotPlan(ats ...time.Duration) *servePlan {
	pl := &servePlan{}
	for _, at := range ats {
		pl.reqs = append(pl.reqs, request{at: at, class: "hot", body: []byte("{}")})
	}
	return pl
}

// A slow reply does not hold back the requests due after it: each is
// sent on time, and each latency counts from the request's due time.
func TestOpenLoopDoesNotWaitForReplies(t *testing.T) {
	const stall = 150 * time.Millisecond
	env, _ := stubEnv(t, func(n int) time.Duration {
		if n == 0 {
			return stall
		}
		return 0
	})
	pl := hotPlan(0, 20*time.Millisecond, 40*time.Millisecond)
	replies := env.openLoop(pl, nil)
	for i, rp := range replies {
		if !rp.ok {
			t.Fatalf("reply %d rejected", i)
		}
		if rp.late() > 15*time.Millisecond {
			t.Errorf("request %d sent %v late; an open loop sends on schedule", i, rp.late())
		}
		if rp.latency() < rp.late() || rp.latency() != rp.done.Sub(rp.due) {
			t.Errorf("request %d: latency %v is not measured from its due time", i, rp.latency())
		}
	}
	if replies[0].latency() < stall {
		t.Errorf("stalled request latency %v < stall %v", replies[0].latency(), stall)
	}
	if replies[2].latency() > stall/2 {
		t.Errorf("request after the stall took %v; it waited for the slow reply", replies[2].latency())
	}
	if got := replies[1].due.Sub(replies[0].due); got != 20*time.Millisecond {
		t.Errorf("due times %v apart, want the planned 20ms", got)
	}
}

// A stalled generator makes the requests behind it late, and their
// latency, counted from the due time, includes that lateness.
func TestOpenLoopChargesGeneratorLateness(t *testing.T) {
	env, _ := stubEnv(t, func(int) time.Duration { return 0 })
	pl := hotPlan(0, 10*time.Millisecond, 20*time.Millisecond)
	const stall = 100 * time.Millisecond
	dispatches := 0
	replies := env.openLoop(pl, func() {
		if dispatches == 1 { // the generator stalls before sending request 1
			time.Sleep(stall)
		}
		dispatches++
	})
	if l := replies[0].late(); l > 15*time.Millisecond {
		t.Errorf("request 0 late by %v before any stall", l)
	}
	for i := 1; i < 3; i++ {
		want := stall - pl.reqs[i].at + pl.reqs[1].at
		if replies[i].late() < want-time.Millisecond {
			t.Errorf("request %d: late %v, want at least %v", i, replies[i].late(), want)
		}
		if replies[i].latency() < replies[i].late() {
			t.Errorf("request %d: latency %v excludes lateness %v", i, replies[i].latency(), replies[i].late())
		}
	}
}

func TestCheckRejectsWrongHits(t *testing.T) {
	env := &serveEnv{hotBody: [][]byte{[]byte("A")}}
	pl := &servePlan{}
	r := request{class: "hot"}
	if ok, _ := env.check(pl, r, 200, "hit", []byte("A"), nil); !ok {
		t.Error("matching hit rejected")
	}
	if ok, _ := env.check(pl, r, 200, "miss", []byte("A"), nil); ok {
		t.Error("hot reply marked miss accepted")
	}
	if ok, _ := env.check(pl, r, 200, "hit", []byte("B"), nil); ok {
		t.Error("hit with a different body accepted")
	}
	if ok, _ := env.check(pl, r, 422, "hit", []byte("A"), nil); ok {
		t.Error("non-200 reply accepted")
	}
}

func TestWindowedMedianIsMedianOfSliceMedians(t *testing.T) {
	const d = 6 * time.Second
	pl := &servePlan{}
	var replies []reply
	base := time.Unix(0, 0)
	// One hot request per half second; slice w's latencies are w+1 ms
	// except one 1 s outlier in slice 0, plus cold requests that must be
	// ignored.
	for i := 0; i < 12; i++ {
		at := time.Duration(i) * d / 12
		lat := time.Duration(int64(at)*latencyWindows/int64(d)+1) * time.Millisecond
		if i == 0 {
			lat = time.Second
		}
		pl.reqs = append(pl.reqs, request{at: at, class: "hot"}, request{at: at, class: "cold"})
		replies = append(replies,
			reply{due: base.Add(at), done: base.Add(at + lat)},
			reply{due: base.Add(at), done: base.Add(at + time.Hour)})
	}
	// Slice medians: (1000+1)/2, 2, 3, 4, 5, 6 ms → median 4.5 ms.
	if got := windowedMedian(pl, replies, "hot", d); math.Abs(got-0.0045) > 1e-12 {
		t.Errorf("windowedMedian = %v s, want 0.0045", got)
	}
}
