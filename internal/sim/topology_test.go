package sim

import (
	"math"
	"testing"

	"hmscs/internal/rng"
	"hmscs/internal/workload"
)

// tieTopology is a two-endpoint topology built to make a delivery tie
// with a last-hop completion: endpoint 0 sends over link 0 with tail
// tailA, endpoint 1 over links 1 and 2 with tail 1.
type tieTopology struct{ tailA float64 }

func (tieTopology) TotalNodes() int             { return 2 }
func (tieTopology) NumClusters() int            { return 1 }
func (tieTopology) ClusterOf(int) int           { return 0 }
func (tieTopology) ClusterRange(int) (int, int) { return 0, 2 }
func (tieTopology) Links() int                  { return 3 }
func (tieTopology) MaxRoute() int               { return 2 }
func (t tieTopology) Route(path []int32, _ *rng.Stream, src, _ int, _ []Center) ([]int32, int32, float64) {
	if src == 0 {
		return append(path, 0), 1, t.tailA
	}
	return append(path, 1, 2), 2, 1
}

// TestScheduledDeliveryCommitsAtItsInstant pins the scheduled delivery
// policy's commit: a delivery is measured at its own instant even when
// the last event of that instant is another message leaving its last
// link. Periodic sources fire at 0 (endpoint 0) and g (endpoint 1) and
// every link serves in exactly 1, so message A is delivered at 1+tailA
// while B leaves its last link at (g+1)+1; tailA makes the two instants
// equal, with B's completion dispatched after A's delivery.
func TestScheduledDeliveryCommitsAtItsInstant(t *testing.T) {
	const rate = 0.1
	_, frac := math.Modf(math.Phi)
	g := (1 / rate) * frac
	tie := (g + 1) + 1
	res, err := RunTopology(tieTopology{tailA: tie - 1}, rate, 1, Options{
		Seed: 1, MeasuredMessages: 2, ServiceDist: rng.Deterministic{Value: 1},
		Arrival: workload.Periodic{}, RecordSample: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sample) != 2 || res.Sample[0] != tie {
		t.Fatalf("samples %v, want message A measured at its delivery instant %v first", res.Sample, tie)
	}
	if res.SwitchHops.Count() != 2 || res.SwitchHops.Mean() != 1.5 {
		t.Fatalf("switch hops %d messages mean %v, want 2 messages mean 1.5", res.SwitchHops.Count(), res.SwitchHops.Mean())
	}
}
