package run

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestIgnoredShardsKeepOutput pins that old specs still mean the same
// thing: every checked-in experiment that carries run.shards renders the
// same markdown report and the same JSONL stream as the identical spec
// with the field deleted. At parallelism 1 the stream (timestamps
// stripped) is byte-identical; at parallelism 2 replications complete in
// scheduling order, so the stream is compared as a multiset of lines
// with seq and ts stripped, while the report stays byte-identical.
func TestIgnoredShardsKeepOutput(t *testing.T) {
	paths, err := filepath.Glob(filepath.Join("..", "..", "testdata", "experiments", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	stamp := regexp.MustCompile(`"(seq|ts)":("[^"]*"|\d+)`)
	render := func(t *testing.T, data []byte, parallel int) (md, jsonl string) {
		t.Helper()
		e, err := Parse(data)
		if err != nil {
			t.Fatal(err)
		}
		var mb, jb strings.Builder
		if _, err := Run(context.Background(), e, Options{
			Parallelism: parallel,
			Sinks:       []Sink{NewMarkdownSink(&mb), NewJSONLSink(&jb)},
		}); err != nil {
			t.Fatal(err)
		}
		return mb.String(), jb.String()
	}
	tested := 0
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var doc map[string]any
		if err := json.Unmarshal(data, &doc); err != nil {
			t.Fatal(err)
		}
		runSec, _ := doc["run"].(map[string]any)
		if _, ok := runSec["shards"]; !ok {
			continue
		}
		tested++
		delete(runSec, "shards")
		bare, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(strings.TrimSuffix(filepath.Base(path), ".json"), func(t *testing.T) {
			for _, parallel := range []int{1, 2} {
				wantMD, wantJL := render(t, bare, parallel)
				gotMD, gotJL := render(t, data, parallel)
				if gotMD != wantMD {
					t.Errorf("parallel=%d: report differs with run.shards:\n%s\n---\n%s", parallel, gotMD, wantMD)
				}
				if parallel == 1 {
					gotJL = stamp.ReplaceAllString(gotJL, `"$1":"X"`)
					wantJL = stamp.ReplaceAllString(wantJL, `"$1":"X"`)
				} else {
					gotJL, wantJL = sortedLines(stamp, gotJL), sortedLines(stamp, wantJL)
				}
				if gotJL != wantJL {
					t.Errorf("parallel=%d: JSONL differs with run.shards:\n%s\n---\n%s", parallel, gotJL, wantJL)
				}
			}
		})
	}
	if tested != 4 {
		t.Fatalf("%d checked-in specs carry run.shards, want 4", tested)
	}
}

// sortedLines strips the stream's ordering metadata and returns its
// lines sorted.
func sortedLines(stamp *regexp.Regexp, s string) string {
	lines := strings.Split(stamp.ReplaceAllString(s, `"$1":"X"`), "\n")
	slices.Sort(lines)
	return strings.Join(lines, "\n")
}
