package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// spanRec is one timed interval at a layer boundary. Times are nanoseconds
// since the recorder's origin; Parent is -1 for a root.
type spanRec struct {
	ID     int               `json:"id"`
	Parent int               `json:"parent"`
	Name   string            `json:"name"`
	Start  int64             `json:"start_ns"`
	End    int64             `json:"end_ns"`
	Attrs  map[string]string `json:"attrs,omitempty"`
}

func (s spanRec) dur() int64 { return s.End - s.Start }

func (s spanRec) seconds() float64 { return float64(s.dur()) / 1e9 }

// recorder keeps spans in memory until the run ends. A nil *recorder
// records nothing, so untraced runs pay one nil check per boundary.
type recorder struct {
	origin time.Time
	mu     sync.Mutex
	spans  []spanRec
	stats  []json.RawMessage // service counter snapshots (serve only)
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

func (r *recorder) ns(t time.Time) int64 { return t.Sub(r.origin).Nanoseconds() }

// add records the closed interval [start, end] and returns its id (-1 on
// a nil recorder, which is also a valid "no parent").
func (r *recorder) add(name string, parent int, start, end time.Time, attrs map[string]string) int {
	if r == nil {
		return -1
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans)
	r.spans = append(r.spans, spanRec{ID: id, Parent: parent, Name: name, Start: r.ns(start), End: r.ns(end), Attrs: attrs})
	return id
}

// open starts a span whose end is filled in by close; for spans that are
// parents of spans recorded while they run.
func (r *recorder) open(name string, parent int) int {
	if r == nil {
		return -1
	}
	now := time.Now()
	return r.add(name, parent, now, now, nil)
}

func (r *recorder) close(id int) {
	if r == nil || id < 0 {
		return
	}
	end := r.ns(time.Now())
	r.mu.Lock()
	r.spans[id].End = end
	r.mu.Unlock()
}

func (r *recorder) snapshot(v any) {
	if r == nil {
		return
	}
	b, err := json.Marshal(v)
	if err != nil {
		return
	}
	r.mu.Lock()
	r.stats = append(r.stats, b)
	r.mu.Unlock()
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval covered by the union of its children's intervals.
func selfTimes(spans []spanRec) []int64 {
	kids := make(map[int][]spanRec)
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.dur() - covered(s.Start, s.End, kids[s.ID])
	}
	return self
}

// covered is the length of [lo, hi] covered by the union of the given
// intervals, each clipped to [lo, hi].
func covered(lo, hi int64, ivs []spanRec) int64 {
	type iv struct{ a, b int64 }
	var clipped []iv
	for _, s := range ivs {
		a, b := max(s.Start, lo), min(s.End, hi)
		if b > a {
			clipped = append(clipped, iv{a, b})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].a < clipped[j].a })
	var total, curA, curB int64
	open := false
	for _, c := range clipped {
		switch {
		case !open:
			curA, curB, open = c.a, c.b, true
		case c.a <= curB:
			curB = max(curB, c.b)
		default:
			total += curB - curA
			curA, curB = c.a, c.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// selfByName sums self time (seconds) per span name over the spans
// descending from root (root included); all spans when root is -1.
func selfByName(spans []spanRec, root int) map[string]float64 {
	self := selfTimes(spans)
	in := make([]bool, len(spans))
	out := make(map[string]float64)
	for i, s := range spans { // parents precede children: ids grow with open order
		in[i] = root < 0 || s.ID == root || (s.Parent >= 0 && in[s.Parent])
		if in[i] {
			out[s.Name] += float64(self[i]) / 1e9
		}
	}
	return out
}

// write stores the spans, the service snapshots and the derived self
// times as one JSON document.
func (r *recorder) write(path string, meta map[string]any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	doc := map[string]any{
		"meta":        meta,
		"spans":       r.spans,
		"self_s":      selfByName(r.spans, -1),
		"stats":       r.stats,
		"time_origin": r.origin.Format(time.RFC3339Nano),
	}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
