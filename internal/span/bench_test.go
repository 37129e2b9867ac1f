package span

import (
	"testing"

	"distspanner/internal/graph"
)

// BenchmarkStretch measures one distance search per edge on the scale
// workload's hub ring: n = 10^5 vertices, each linked to the next two,
// plus a hub every 2048 vertices linked to the 253 vertices from 3 to 255
// ahead. H keeps the ring's unit edges and every hub edge, a 2-spanner
// under which each (v, v+2) chord has stretch 2.
func BenchmarkStretch(b *testing.B) {
	const n, spacing, reach = 100_000, 2048, 256
	g := graph.New(n)
	var chords []int
	for v := 0; v < n; v++ {
		g.AddEdge(v, (v+1)%n)
		chords = append(chords, g.AddEdge(v, (v+2)%n))
	}
	for hub := 0; hub < n; hub += spacing {
		for j := 3; j < reach; j++ {
			g.AddEdge(hub, (hub+j)%n)
		}
	}
	h := graph.Full(g.M())
	for _, i := range chords {
		h.Remove(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if st := Stretch(g, h, 2); st.Max != 2 {
			b.Fatalf("stretch max %d, want 2", st.Max)
		}
	}
}
