package plan

import (
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"hmscs/internal/core"
)

// referenceEnumerate builds every candidate of the space on its own: a
// fresh cluster slice and configuration per grid point, in enumeration
// order, skipping points that fail validation and subsampling the kept
// grid at Enumerate's stride. It also reports how many points it skipped.
func referenceEnumerate(s *Space) ([]Candidate, int) {
	headroom := s.Headroom
	if len(headroom) == 0 {
		headroom = []float64{1}
	}
	var layouts [][]int
	for _, c := range s.Clusters {
		for _, n := range s.NodesPerCluster {
			layout := make([]int, c)
			for i := range layout {
				layout[i] = n
			}
			layouts = append(layouts, layout)
		}
	}
	layouts = append(layouts, s.Splits...)
	var out []Candidate
	skipped := 0
	for _, layout := range layouts {
		for _, icn1 := range s.ICN1 {
			for _, ecn1 := range s.ECN1 {
				for _, icn2 := range s.ICN2 {
					for _, arch := range s.Archs {
						for _, h := range headroom {
							clusters := make([]core.Cluster, len(layout))
							for i, n := range layout {
								clusters[i] = core.Cluster{Nodes: n, Lambda: s.Lambda * h, ICN1: icn1, ECN1: ecn1}
							}
							cfg := &core.Config{Clusters: clusters, ICN2: icn2, Arch: arch, Switch: s.Switch, MessageBytes: s.MessageBytes}
							if cfg.Validate() != nil {
								skipped++
								continue
							}
							out = append(out, Candidate{Index: len(out), Cfg: cfg, Headroom: h})
						}
					}
				}
			}
		}
	}
	if s.MaxCandidates > 0 && len(out) > s.MaxCandidates {
		sampled := make([]Candidate, s.MaxCandidates)
		for k := range sampled {
			sampled[k] = out[k*len(out)/s.MaxCandidates]
			sampled[k].Index = k
		}
		out = sampled
	}
	return out, skipped
}

// skipSpace mixes homogeneous layouts, heterogeneous splits and two
// layouts that are a lone 1-node cluster (C=1 N=1 and the split {1}),
// which core rejects and enumeration must skip.
func skipSpace() *Space {
	sp := DefaultSpace()
	sp.Clusters = []int{3, 1}
	sp.NodesPerCluster = []int{1, 2}
	sp.Splits = [][]int{{1}, {2, 1, 4}}
	sp.Headroom = []float64{1, 2}
	return sp
}

// TestEnumerateMatchesGrid checks the shared-run enumeration against the
// per-candidate reference: the same indices, headrooms and configurations
// in the same order, and so the same skipped combinations.
func TestEnumerateMatchesGrid(t *testing.T) {
	defaultMax := DefaultSpace()
	defaultMax.MaxCandidates = 100
	skipMax := skipSpace()
	skipMax.MaxCandidates = 7
	splitsOnly := DefaultSpace()
	splitsOnly.Clusters, splitsOnly.NodesPerCluster = nil, nil
	repeated := DefaultSpace()
	repeated.Clusters, repeated.NodesPerCluster = []int{4, 2, 4}, []int{8, 8}
	for _, tc := range []struct {
		name string
		sp   *Space
	}{
		{"default", DefaultSpace()},
		{"skip", skipSpace()},
		{"default-max", defaultMax},
		{"skip-max", skipMax},
		{"shrinking", shrinkingSpace()},
		{"splits-only", splitsOnly},
		{"no-headroom", smallSpace()},
		{"repeated-axis", repeated},
	} {
		got, err := Enumerate(tc.sp)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		want, skipped := referenceEnumerate(tc.sp)
		if tc.name == "skip" && skipped == 0 {
			t.Fatalf("%s: the reference skipped nothing, so the skip path is untested", tc.name)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d candidates, reference has %d (%d skipped)", tc.name, len(got), len(want), skipped)
		}
		for i := range want {
			g, w := got[i], want[i]
			if g.Index != w.Index || g.Headroom != w.Headroom || !reflect.DeepEqual(*g.Cfg, *w.Cfg) {
				t.Fatalf("%s: candidate %d is %d/%g/%v, reference %d/%g/%v",
					tc.name, i, g.Index, g.Headroom, g.Cfg, w.Index, w.Headroom, w.Cfg)
			}
		}
	}
}

// TestEnumerateCandidatesDoNotAlias appends to every candidate's clusters
// in turn and writes into the result: because each window on a shared run
// is capped, the append copies, and no other candidate changes.
func TestEnumerateCandidatesDoNotAlias(t *testing.T) {
	for _, sp := range []*Space{DefaultSpace(), skipSpace()} {
		cands, err := Enumerate(sp)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := referenceEnumerate(sp)
		for _, c := range cands {
			grown := append(c.Cfg.Clusters, core.Cluster{Nodes: 999})
			grown[0].Nodes, grown[len(grown)-1].Lambda = -1, -1
		}
		for i, c := range cands {
			if !reflect.DeepEqual(c.Cfg.Clusters, want[i].Cfg.Clusters) {
				t.Fatalf("candidate %d (%s) changed after appending to candidates' clusters", i, c.Label())
			}
		}
	}
}

// enumerateBytes is the fewest bytes Enumerate(sp) allocated over a few
// calls (the minimum discards allocation by anything else running).
func enumerateBytes(t *testing.T, sp *Space) int64 {
	t.Helper()
	best := int64(-1)
	for i := 0; i < 3; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := Enumerate(sp); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if b := int64(after.TotalAlloc - before.TotalAlloc); best < 0 || b < best {
			best = b
		}
	}
	return best
}

// TestEnumerateBytesScaleWithRuns pins that cluster storage grows with
// the distinct cluster runs, not with candidates × clusters: the default
// space enumerates in under 0.5 MB, and doubling its largest cluster
// count adds about the longer runs' bytes, where per-candidate copies
// would add four times as much.
func TestEnumerateBytesScaleWithRuns(t *testing.T) {
	sp := DefaultSpace()
	base := enumerateBytes(t, sp)
	if base >= 500_000 {
		t.Fatalf("Enumerate(DefaultSpace()) allocated %d bytes, want under 0.5 MB", base)
	}
	last := len(sp.Clusters) - 1
	added := int64(sp.Clusters[last])
	sp.Clusters[last] *= 2
	grew := enumerateBytes(t, sp) - base
	cluster := int64(unsafe.Sizeof(core.Cluster{}))
	runs := int64(len(sp.NodesPerCluster) * len(sp.ICN1) * len(sp.ECN1) * len(sp.Headroom))
	longerRuns := runs * added * cluster
	perCandidate := runs * int64(len(sp.ICN2)*len(sp.Archs)) * added * cluster
	if grew > longerRuns+longerRuns/4 {
		t.Fatalf("doubling the largest cluster count added %d bytes; the longer runs are %d, per-candidate copies %d",
			grew, longerRuns, perCandidate)
	}
}
