package gen

import "testing"

// BenchmarkConnectedGNP generates the gnp workload's graph: n = 10^4 at
// p = 8e-4, about 5·10^7 vertex pairs drawn in the pair loop.
func BenchmarkConnectedGNP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ConnectedGNP(10_000, 0.0008, int64(i))
	}
}
