package serve_test

import (
	"fmt"
	"testing"

	"hmscs/internal/run"
	"hmscs/internal/serve"
)

// explicitDefaultJSON spells out every documented default of the kind —
// the long-hand twin of the minimal {"v":1,"kind":...} spec. Keep in
// sync with run.Normalize; TestSpecHashNormalization breaks when the
// two drift.
func explicitDefaultJSON(kind run.Kind) string {
	system := `"system": {"case": 1, "clusters": 16, "total": 256, "msg_bytes": 1024,
		"arch": "non-blocking", "lambda_per_s": 250, "ports": 24, "switch_latency_us": 10},`
	workload := `"workload": {"arrival": "poisson", "burst_ratio": 10, "pattern": "uniform", "service": "exp"},`
	runSec := `"run": {"seed": 1, "messages": 10000, "warmup": 2000, "reps": 3},`
	precision := `"precision": {"confidence": 0.95, "max_reps": 64},`
	switch kind {
	case run.KindAnalyze:
		return `{"v": 1, "kind": "analyze",` + system + workload + runSec + precision + `"analyze": {}}`
	case run.KindSimulate:
		return `{"v": 1, "kind": "simulate",` + system + workload + runSec + precision + `"simulate": {}}`
	case run.KindNetsim:
		return `{"v": 1, "kind": "netsim",
			"workload": {"arrival": "poisson", "burst_ratio": 10, "pattern": "uniform", "service": "det"},
			"run": {"seed": 1, "messages": 10000, "warmup": 1000, "reps": 3},` + precision + `
			"net": {"net": "icn2", "topo": "fat-tree", "n": 32, "ports": 8,
				"switch_latency_us": 10, "tech": "GE", "lambda_per_s": 10000, "msg_bytes": 1024}}`
	case run.KindFigure:
		return `{"v": 1, "kind": "figure",` + system + workload + runSec + precision +
			`"figure": {"what": "all", "format": "table"}}`
	case run.KindSweep:
		return `{"v": 1, "kind": "sweep",` + system + workload + runSec + precision +
			`"sweep": {"var": "clusters"}}`
	case run.KindPlan:
		return `{"v": 1, "kind": "plan",` + workload + runSec + `
			"precision": {"rel_width": 0.05, "confidence": 0.95, "max_reps": 64},
			"plan": {"slo_latency_ms": 2, "slo_util": 0.95, "node_cost": 1, "top": 3, "format": "md"}}`
	}
	panic("unknown kind " + kind)
}

// TestSpecHashNormalization pins the cache key's foundation: a
// zero-valued spec and one with every documented default written out
// explicitly normalize to the same bytes, so they hash identically and
// share a cache entry. run.Normalize is what makes this true — a
// default it forgets to fill shows up here as a hash mismatch.
func TestSpecHashNormalization(t *testing.T) {
	for _, kind := range run.Kinds() {
		minimal, err := run.Parse([]byte(fmt.Sprintf(`{"v": 1, "kind": %q}`, kind)))
		if err != nil {
			t.Fatalf("%s: minimal spec: %v", kind, err)
		}
		explicit, err := run.Parse([]byte(explicitDefaultJSON(kind)))
		if err != nil {
			t.Fatalf("%s: explicit-default spec: %v", kind, err)
		}
		hMin, err := serve.SpecHash(minimal)
		if err != nil {
			t.Fatal(err)
		}
		hExp, err := serve.SpecHash(explicit)
		if err != nil {
			t.Fatal(err)
		}
		if hMin != hExp {
			a, _ := minimal.Marshal()
			b, _ := explicit.Marshal()
			t.Errorf("%s: zero-valued and explicit-default specs hash differently\nminimal:\n%s\nexplicit:\n%s", kind, a, b)
		}
	}
}

// TestSpecHashShardsExcluded pins that Run.Shards, accepted and ignored,
// never moves a cache key: a spec carrying it shares the cache entry of
// the same experiment without it.
func TestSpecHashShardsExcluded(t *testing.T) {
	a := run.NewExperiment(run.KindSimulate)
	b := run.NewExperiment(run.KindSimulate)
	b.Run.Shards = 4
	ha, err := serve.SpecHash(a)
	if err != nil {
		t.Fatal(err)
	}
	hb, err := serve.SpecHash(b)
	if err != nil {
		t.Fatal(err)
	}
	if ha != hb {
		t.Fatalf("shards changed the hash: %s vs %s", ha, hb)
	}
	if a.Run.Shards != 0 || b.Run.Shards != 4 {
		t.Fatal("SpecHash mutated its argument")
	}
}

// TestSpecHashDistinguishesResults: any field that changes what an
// experiment computes must change the key.
func TestSpecHashDistinguishesResults(t *testing.T) {
	base := run.NewExperiment(run.KindSimulate)
	seen := map[string]string{}
	add := func(label string, e *run.Experiment) {
		h, err := serve.SpecHash(e)
		if err != nil {
			t.Fatal(err)
		}
		if prev, dup := seen[h]; dup {
			t.Errorf("%s collides with %s", label, prev)
		}
		seen[h] = label
	}
	add("base", base)
	seed := base.Clone()
	seed.Run.Seed = 2
	add("seed", seed)
	clusters := base.Clone()
	clusters.System.Clusters = 32
	add("clusters", clusters)
	arrival := base.Clone()
	arrival.Workload.Arrival = "mmpp"
	add("arrival", arrival)
	kind := base.Clone()
	kind.Kind = run.KindAnalyze
	kind.Simulate = nil
	add("kind", kind)
}
