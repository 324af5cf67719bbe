package serve_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"hmscs/internal/run"
	"hmscs/internal/serve"
)

// FuzzSpecRoundTrip fuzzes the spec boundary every submission crosses.
// Whenever run.Parse accepts an input, Marshal → Parse must be a fixed
// point, SpecHash must survive the round trip, the run counts it
// accepted must be non-negative, and setting the ignored run.shards to
// any non-negative value must not move the hash. Seeded with every
// checked-in experiment spec.
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
	f.Fuzz(func(t *testing.T, data []byte, shards uint16) {
		e, err := run.Parse(data)
		if err != nil {
			return
		}
		if r := e.Run; r != nil && (r.Messages < 0 || r.Warmup < 0 || r.Reps < 0 || r.Shards < 0) {
			t.Fatalf("Parse accepted negative run counts: %+v", *r)
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
