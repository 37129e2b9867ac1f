package trace

import (
	"testing"
	"time"

	"distspanner/internal/dist"
)

// Unit tests for the Recorder, the digest, and the timing summary —
// hand-built transcripts with known expectations. The integration
// surface (real engine runs, cross-mode equality, golden digests per
// algorithm family) lives in crossmode_test.go and golden_test.go.

// sampleRecorder builds a small fixed transcript by hand: two vertices,
// one exchange, one phase, one timing entry.
func sampleRecorder() *Recorder {
	r := NewRecorder(2)
	r.Event(dist.TraceEvent{Kind: dist.TraceSend, Round: 1, V: 0, Peer: 1, Tag: 1, Bits: 8})
	r.Event(dist.TraceEvent{Kind: dist.TraceDeliver, Round: 1, V: 1, Peer: 0, Tag: 1, Bits: 8})
	r.Event(dist.TraceEvent{Kind: dist.TraceRetire, Round: 2, V: 0, Peer: -1})
	r.Event(dist.TraceEvent{Kind: dist.TraceRetire, Round: 2, V: 1, Peer: -1})
	r.Phase(dist.RoundActivity{Round: 1, Active: 2, Senders: 1, Delivered: 1, DeliveredBits: 8})
	r.RoundTime(dist.RoundTiming{Round: 1, Wall: 1500 * time.Nanosecond, Step: 1000, Route: 400, Sync: 100})
	return r
}

func TestRecorderAccessors(t *testing.T) {
	r := sampleRecorder()
	if r.N() != 2 {
		t.Errorf("N = %d", r.N())
	}
	if r.EventCount() != 4 {
		t.Errorf("EventCount = %d", r.EventCount())
	}
	if len(r.VertexEvents(0)) != 2 || len(r.VertexEvents(1)) != 2 {
		t.Errorf("vertex buffers: %d, %d", len(r.VertexEvents(0)), len(r.VertexEvents(1)))
	}
	if len(r.Phases()) != 1 || len(r.Timings()) != 1 {
		t.Errorf("phases=%d timings=%d", len(r.Phases()), len(r.Timings()))
	}
}

func TestDigestDeterministic(t *testing.T) {
	a, b := sampleRecorder().Digest(), sampleRecorder().Digest()
	if !a.Equal(b) {
		t.Fatalf("identical transcripts digest differently: %s vs %s", a.Run, b.Run)
	}
	if len(a.Run) != 16 || len(a.Vertex) != 2 {
		t.Fatalf("malformed digest: %+v", a)
	}
}

// TestDigestSensitivity flips one field at a time and checks the run
// hash moves; vertex hashes must move only for the touched vertex.
func TestDigestSensitivity(t *testing.T) {
	base := sampleRecorder().Digest()

	mutations := map[string]func(*Recorder){
		"event kind": func(r *Recorder) {
			r.events[0][0].Kind = dist.TraceDeliver
		},
		"event round": func(r *Recorder) {
			r.events[0][0].Round = 2
		},
		"event peer": func(r *Recorder) {
			r.events[0][0].Peer = 0
		},
		"event bits": func(r *Recorder) {
			r.events[0][0].Bits = 9
		},
		"event tag": func(r *Recorder) {
			r.events[0][0].Tag = 3
		},
		"event order": func(r *Recorder) {
			r.events[0][0], r.events[0][1] = r.events[0][1], r.events[0][0]
		},
		"phase delivered": func(r *Recorder) {
			r.phases[0].Delivered = 2
		},
	}
	for name, mutate := range mutations {
		r := sampleRecorder()
		mutate(r)
		d := r.Digest()
		if d.Equal(base) {
			t.Errorf("%s: mutation did not change the digest", name)
		}
		if name != "phase delivered" && d.Vertex[1] != base.Vertex[1] {
			t.Errorf("%s: vertex 1 hash moved though only vertex 0 changed", name)
		}
	}

	// The timing channel must NOT be part of the digest.
	r := sampleRecorder()
	r.timings[0].Wall = 999 * time.Millisecond
	r.RoundTime(dist.RoundTiming{Round: 2, Wall: time.Second})
	if d := r.Digest(); !d.Equal(base) {
		t.Error("timing mutation changed the digest — wall clock leaked into the logical channel")
	}
}

func TestDigestEqual(t *testing.T) {
	a := sampleRecorder().Digest()
	b := a
	b.Vertex = append([]string(nil), a.Vertex...)
	if !a.Equal(b) {
		t.Error("copied digest not Equal")
	}
	b.Vertex[0] = "0000000000000000"
	if a.Equal(b) {
		t.Error("vertex mismatch not detected")
	}
	c := a
	c.Vertex = a.Vertex[:1]
	if a.Equal(c) {
		t.Error("vertex count mismatch not detected")
	}
}

func TestTimingRecorderKeepsOnlyTimings(t *testing.T) {
	tr := &TimingRecorder{}
	tr.Event(dist.TraceEvent{Kind: dist.TraceSend, Round: 1, V: 0, Peer: 1})
	tr.Phase(dist.RoundActivity{Round: 1, Active: 1})
	tr.RoundTime(dist.RoundTiming{Round: 1, Wall: time.Microsecond})
	if got := len(tr.Timings()); got != 1 {
		t.Fatalf("timings = %d", got)
	}
}

func TestSummarizeTimings(t *testing.T) {
	if s := SummarizeTimings(nil); s != (TimingSummary{}) {
		t.Errorf("empty summary = %+v", s)
	}
	ts := []dist.RoundTiming{
		{Round: 1, Wall: 100, Step: 60, Route: 30, Sync: 10},
		{Round: 2, Wall: 300, Step: 200, Route: 80, Sync: 20},
	}
	s := SummarizeTimings(ts)
	if s.Rounds != 2 || s.TotalWallNs != 400 || s.WallMaxNs != 300 || s.WallMeanNs != 200 {
		t.Errorf("wall aggregates wrong: %+v", s)
	}
	if s.StepShare != 0.65 || s.RouteShare != 0.275 || s.SyncShare != 0.075 {
		t.Errorf("shares wrong: %+v", s)
	}
}
