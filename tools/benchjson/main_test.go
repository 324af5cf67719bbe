package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

func TestParseBenchLine(t *testing.T) {
	e, ok := parseBenchLine("BenchmarkFigure4-8  3  19145442 ns/op  34.25 latency-ms  1404325 B/op  6567 allocs/op")
	if !ok {
		t.Fatal("line rejected")
	}
	if e.Name != "BenchmarkFigure4-8" || e.Iterations != 3 ||
		e.NsPerOp != 19145442 || e.AllocsPerOp != 6567 || e.Extra["latency-ms"] != 34.25 {
		t.Fatalf("parsed = %+v", e)
	}
	if _, ok := parseBenchLine("BenchmarkBroken notanumber"); ok {
		t.Fatal("garbage accepted")
	}
}

// writeReport drops a report file without a recorded core count for the
// compare tests.
func writeReport(t *testing.T, dir, name string, entries []Entry) string {
	t.Helper()
	return writeFullReport(t, dir, name, &Report{Benchmarks: entries})
}

func writeFullReport(t *testing.T, dir, name string, rep *Report) string {
	t.Helper()
	path := filepath.Join(dir, name)
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareGate(t *testing.T) {
	dir := t.TempDir()
	oldPath := writeReport(t, dir, "old.json", []Entry{
		{Name: "BenchmarkA", NsPerOp: 1_000_000, AllocsPerOp: 100},
		{Name: "BenchmarkB", NsPerOp: 2_000_000, AllocsPerOp: 50},
		{Name: "BenchmarkGone", NsPerOp: 10_000, AllocsPerOp: 1},
	})

	// Within threshold: pass (including a removed and an added benchmark).
	okPath := writeReport(t, dir, "ok.json", []Entry{
		{Name: "BenchmarkA", NsPerOp: 1_100_000, AllocsPerOp: 110},
		{Name: "BenchmarkB", NsPerOp: 1_900_000, AllocsPerOp: 50},
		{Name: "BenchmarkNew", NsPerOp: 5_000_000, AllocsPerOp: 9},
	})
	var b strings.Builder
	regressed, err := runCompare(oldPath, okPath, 0.25, &b)
	if err != nil {
		t.Fatal(err)
	}
	if regressed {
		t.Fatalf("within-threshold changes flagged:\n%s", b.String())
	}
	for _, frag := range []string{"BenchmarkNew", "no baseline", "BenchmarkGone", "removed"} {
		if !strings.Contains(b.String(), frag) {
			t.Errorf("report missing %q:\n%s", frag, b.String())
		}
	}

	// ns/op blow-up: fail.
	slowPath := writeReport(t, dir, "slow.json", []Entry{
		{Name: "BenchmarkA", NsPerOp: 1_300_000, AllocsPerOp: 100},
		{Name: "BenchmarkB", NsPerOp: 2_000_000, AllocsPerOp: 50},
	})
	b.Reset()
	regressed, err = runCompare(oldPath, slowPath, 0.25, &b)
	if err != nil || !regressed {
		t.Fatalf("30%% ns/op regression not flagged (err=%v):\n%s", err, b.String())
	}
	if !strings.Contains(b.String(), "REGRESSION (ns/op)") {
		t.Fatalf("missing ns/op verdict:\n%s", b.String())
	}

	// allocs/op blow-up: fail even with flat ns/op.
	allocPath := writeReport(t, dir, "alloc.json", []Entry{
		{Name: "BenchmarkA", NsPerOp: 1_000_000, AllocsPerOp: 140},
	})
	b.Reset()
	regressed, err = runCompare(oldPath, allocPath, 0.25, &b)
	if err != nil || !regressed {
		t.Fatalf("alloc regression not flagged (err=%v):\n%s", err, b.String())
	}

	// Fast benchmarks (<100µs/op) are exempt from ns/op gating.
	noisePath := writeReport(t, dir, "noise.json", []Entry{
		{Name: "BenchmarkGone", NsPerOp: 20_000, AllocsPerOp: 1},
	})
	b.Reset()
	regressed, err = runCompare(oldPath, noisePath, 0.25, &b)
	if err != nil {
		t.Fatal(err)
	}
	if regressed {
		t.Fatalf("fast-benchmark jitter flagged:\n%s", b.String())
	}

	// Missing file: error, not a silent pass.
	if _, err := runCompare(filepath.Join(dir, "absent.json"), okPath, 0.25, &b); err == nil {
		t.Fatal("missing baseline accepted")
	}
}

// TestCompareRefusesDifferentCoreCounts pins the ledger rule that timings
// taken on different core counts are never compared: -compare errors out
// (exit status 2) instead of passing or failing the gate.
func TestCompareRefusesDifferentCoreCounts(t *testing.T) {
	dir := t.TempDir()
	entries := []Entry{{Name: "BenchmarkA", NsPerOp: 1_000_000, AllocsPerOp: 100}}
	two := writeFullReport(t, dir, "two.json", &Report{NProc: 2, GOMAXPROCS: 2, Benchmarks: entries})
	twoAgain := writeFullReport(t, dir, "two-again.json", &Report{NProc: 2, GOMAXPROCS: 2, Benchmarks: entries})
	four := writeFullReport(t, dir, "four.json", &Report{NProc: 4, GOMAXPROCS: 4, Benchmarks: entries})
	capped := writeFullReport(t, dir, "capped.json", &Report{NProc: 2, GOMAXPROCS: 1, Benchmarks: entries})

	var b strings.Builder
	if regressed, err := runCompare(two, twoAgain, 0.25, &b); err != nil || regressed {
		t.Fatalf("same core count: regressed=%v err=%v\n%s", regressed, err, b.String())
	}
	for _, other := range []string{four, capped} {
		_, err := runCompare(two, other, 0.25, &b)
		if err == nil || !strings.Contains(err.Error(), "core counts differ") {
			t.Fatalf("compare against %s: err = %v, want a core-count refusal", filepath.Base(other), err)
		}
	}
}

// TestConvertRecordsCoreCount checks the converted report carries the
// host's core count.
func TestConvertRecordsCoreCount(t *testing.T) {
	var out strings.Builder
	if err := convert(strings.NewReader("BenchmarkA-2  3  1000 ns/op\n"), &out, ""); err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal([]byte(out.String()), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.NProc != runtime.NumCPU() || rep.GOMAXPROCS != runtime.GOMAXPROCS(0) || len(rep.Benchmarks) != 1 {
		t.Fatalf("report = %+v, want nproc %d GOMAXPROCS %d and one benchmark",
			rep, runtime.NumCPU(), runtime.GOMAXPROCS(0))
	}
}

// TestCompareRefusesDifferentBenchtimes pins that a few-iteration run is
// never gated against a full-length ledger: -compare errors out on
// differing benchtimes, compares equal ones, and only notes a report
// that does not record one.
func TestCompareRefusesDifferentBenchtimes(t *testing.T) {
	dir := t.TempDir()
	entries := []Entry{{Name: "BenchmarkA", NsPerOp: 1_000_000, AllocsPerOp: 100}}
	rep := func(name, bt string) string {
		return writeFullReport(t, dir, name, &Report{NProc: 2, GOMAXPROCS: 2, Benchtime: bt, Benchmarks: entries})
	}
	full, fullAgain, smoke, smokeAgain, unknown := rep("full.json", "1s"), rep("full-again.json", "1s"),
		rep("smoke.json", "3x"), rep("smoke-again.json", "3x"), rep("unknown.json", "")

	var b strings.Builder
	for _, pair := range [][2]string{{full, fullAgain}, {smoke, smokeAgain}} {
		if regressed, err := runCompare(pair[0], pair[1], 0.25, &b); err != nil || regressed {
			t.Fatalf("same benchtime: regressed=%v err=%v\n%s", regressed, err, b.String())
		}
	}
	if _, err := runCompare(full, smoke, 0.25, &b); err == nil || !strings.Contains(err.Error(), "benchtimes differ") {
		t.Fatalf("1s against 3x: err = %v, want a benchtime refusal", err)
	}
	b.Reset()
	if regressed, err := runCompare(unknown, smoke, 0.25, &b); err != nil || regressed || !strings.Contains(b.String(), "does not record its benchtime") {
		t.Fatalf("unrecorded benchtime: regressed=%v err=%v\n%s", regressed, err, b.String())
	}
}

// TestConvertRecordsBenchtime checks the report carries the benchtime it
// is told, normalised, and that a malformed one is refused.
func TestConvertRecordsBenchtime(t *testing.T) {
	for in, want := range map[string]string{"": "", "3x": "3x", "20x": "20x", "1s": "1s", "1000ms": "1s", "1.5s": "1.5s"} {
		var out strings.Builder
		if err := convert(strings.NewReader("BenchmarkA-2  3  1000 ns/op\n"), &out, in); err != nil {
			t.Fatalf("benchtime %q: %v", in, err)
		}
		var rep Report
		if err := json.Unmarshal([]byte(out.String()), &rep); err != nil {
			t.Fatal(err)
		}
		if rep.Benchtime != want {
			t.Fatalf("benchtime %q recorded as %q, want %q", in, rep.Benchtime, want)
		}
	}
	for _, bad := range []string{"x", "0x", "-3x", "3", "fast", "0s"} {
		if err := convert(strings.NewReader(""), io.Discard, bad); err == nil {
			t.Fatalf("benchtime %q accepted", bad)
		}
	}
}
