package serve_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"hmscs/internal/output"
	"hmscs/internal/run"
	"hmscs/internal/serve"
)

// FuzzSpecRoundTrip fuzzes the spec boundary every submission crosses.
// Whenever run.Parse accepts an input, Marshal → Parse must be a fixed
// point, SpecHash must survive the round trip, the run counts it
// accepted must be non-negative, its precision section must build, and
// setting the ignored run.shards to any non-negative value must not move
// the hash. Seeded with every checked-in experiment spec, and with specs
// carrying an inline configuration, design space and arrival trace.
func FuzzSpecRoundTrip(f *testing.F) {
	for _, dir := range []string{"testdata/experiments", "docs/experiments"} {
		paths, err := filepath.Glob(filepath.Join("..", "..", dir, "*.json"))
		if err != nil {
			f.Fatal(err)
		}
		for _, path := range paths {
			data, err := os.ReadFile(path)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(data, uint16(2))
		}
	}
	// One precision section per validation rule; max_reps 2 is refused
	// only where the run is adaptive (plan, or a rel_width).
	for _, prec := range []string{
		`{"rel_width":-0.05}`, `{"rel_width":1}`, `{"confidence":-1}`,
		`{"confidence":1}`, `{"max_reps":-1}`, `{"max_reps":2}`,
		`{"rel_width":0.05,"max_reps":2}`,
	} {
		f.Add([]byte(`{"kind":"simulate","precision":`+prec+`}`), uint16(2))
		f.Add([]byte(`{"kind":"plan","precision":`+prec+`}`), uint16(2))
	}
	// Specs carry values, not paths: an inline configuration (with a
	// 12.5 µs switch and a custom technology, which the config codec
	// must carry through Marshal → Parse exactly), an inline design
	// space and an inline arrival trace.
	config := `{"clusters":[{"nodes":8,"lambda_per_s":250,"icn1":{"name":"X","latency_us":12.5,"bandwidth_mb_s":123.4},"ecn1":{"name":"FE"}},` +
		`{"nodes":4,"lambda_per_s":100,"icn1":{"name":"GE"},"ecn1":{"name":"GE"}}],` +
		`"icn2":{"name":"GE"},"arch":"blocking","switch_ports":16,"switch_latency_us":12.5,"message_bytes":700}`
	space := `{"clusters":[2,4],"nodes_per_cluster":[8],"icn1":[{"name":"X","latency_us":12.5,"bandwidth_mb_s":123.4}],` +
		`"ecn1":[{"name":"FE"}],"icn2":[{"name":"GE"}],"archs":["non-blocking"],"lambda_per_s":250,` +
		`"message_bytes":1024,"switch_ports":24,"switch_latency_us":12.5}`
	for _, spec := range []string{
		`{"kind":"simulate","system":{"config":` + config + `}}`,
		`{"kind":"netsim","net":{"config":` + config + `,"net":"icn1","cluster":1}}`,
		`{"kind":"plan","plan":{"space":` + space + `}}`,
		`{"kind":"simulate","workload":{"arrival":"trace","trace":[0,0.002,0.0041,0.08,0.0822]}}`,
	} {
		f.Add([]byte(spec), uint16(2))
	}
	f.Fuzz(func(t *testing.T, data []byte, shards uint16) {
		e, err := run.Parse(data)
		if err != nil {
			return
		}
		if r := e.Run; r != nil && (r.Messages < 0 || r.Warmup < 0 || r.Reps < 0 || r.Shards < 0) {
			t.Fatalf("Parse accepted negative run counts: %+v", *r)
		}
		// An accepted precision section builds: the stopping rule and the
		// scenario estimator take it as it is, so no job fails on it.
		if _, err := e.Precision.Build(); err != nil {
			t.Fatalf("Parse accepted a precision section that does not build: %v\n%s", err, data)
		}
		if _, err := output.NewTransient(1, 1, e.Precision.Confidence); err != nil {
			t.Fatalf("Parse accepted a confidence the scenario estimator rejects: %v\n%s", err, data)
		}
		m1, err := e.Marshal()
		if err != nil {
			t.Fatalf("Marshal of a parsed spec: %v", err)
		}
		e2, err := run.Parse(m1)
		if err != nil {
			t.Fatalf("Parse rejects its own Marshal output: %v\n%s", err, m1)
		}
		m2, err := e2.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(m1, m2) {
			t.Fatalf("Marshal → Parse is not a fixed point:\n%s\n---\n%s", m1, m2)
		}
		h1, err := serve.SpecHash(e)
		if err != nil {
			t.Fatal(err)
		}
		h2, err := serve.SpecHash(e2)
		if err != nil {
			t.Fatal(err)
		}
		if h1 != h2 {
			t.Fatalf("SpecHash moved across the round trip: %s vs %s\n%s", h1, h2, m1)
		}
		c := e.Clone()
		c.Run.Shards = int(shards)
		h3, err := serve.SpecHash(c)
		if err != nil {
			t.Fatal(err)
		}
		if h3 != h1 {
			t.Fatalf("run.shards=%d moved SpecHash: %s vs %s", shards, h3, h1)
		}
	})
}
