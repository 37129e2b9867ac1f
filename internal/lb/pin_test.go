package lb

import (
	"testing"

	"distspanner/internal/dist"
)

// TestMeterLearnBallPinned pins the exact metering of the learn-ball
// protocol on the harness fixture (Fig. 1 with ℓ=3, β=4, depth 5). The
// values are literal: a change to how the protocol is expressed (payload
// family, engine) must leave every bit count where it is.
func TestMeterLearnBallPinned(t *testing.T) {
	l, beta := 3, 4
	a, b := DisjointInputs(l*l, 0.4, 1)
	f, err := NewFig1(l, beta, a, b)
	if err != nil {
		t.Fatal(err)
	}
	comm, _ := f.G.Underlying()
	report, err := MeterLearnBall(comm, f.CutSide(), 5, 32, l*l)
	if err != nil {
		t.Fatal(err)
	}
	want := dist.Stats{
		Rounds: 5, Messages: 1900, TotalBits: 877800, MaxMessageBits: 1818,
		MaxEdgeRoundBits: 1818, CutBits: 41580, ActiveSteps: 195, PeakActive: 39,
	}
	if report.Stats != want {
		t.Fatalf("stats = %#v, want %#v", report.Stats, want)
	}
}
