// Command benchjson converts `go test -bench -benchmem` output on stdin
// into a JSON benchmark report on stdout, so CI and the Makefile can
// track ns/op and allocs/op over time (see `make bench`).
//
// With -compare it instead acts as CI's regression gate: it loads two
// reports, matches benchmarks by name, and exits non-zero when any
// benchmark's ns/op or allocs/op regressed by more than -threshold
// (default 25%):
//
//	benchjson -compare old.json new.json
//	benchjson -compare -threshold 0.10 old.json new.json
//
// Every report records the core count it was taken on: the host's
// logical CPUs (nproc) and GOMAXPROCS, read when the run is converted,
// which is the benchmark host when the run is piped straight in. It also
// records the -benchtime the run was taken at, which go test does not
// print, so the converter is told it:
//
//	go test -bench . -benchtime 3x | benchjson -benchtime 3x > new.json
//
// -compare refuses two reports whose core counts or benchtimes differ,
// since timings from different core counts, or from a few iterations
// against a second of them, are not comparable.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Entry is one benchmark line.
type Entry struct {
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
	// Extra holds custom metrics (e.g. latency-ms from ReportMetric).
	Extra map[string]float64 `json:"extra,omitempty"`
}

// Report is the full parsed run.
type Report struct {
	Goos       string `json:"goos,omitempty"`
	Goarch     string `json:"goarch,omitempty"`
	Pkg        string `json:"pkg,omitempty"`
	CPU        string `json:"cpu,omitempty"`
	NProc      int    `json:"nproc,omitempty"`
	GOMAXPROCS int    `json:"gomaxprocs,omitempty"`
	// Benchtime is the run's -benchtime, normalised ("1s", "3x").
	Benchtime  string  `json:"benchtime,omitempty"`
	Benchmarks []Entry `json:"benchmarks"`
}

func main() {
	compare := flag.Bool("compare", false, "compare two report files (old.json new.json) and fail on regression")
	threshold := flag.Float64("threshold", 0.25, "allowed relative regression in ns/op and allocs/op before -compare fails")
	benchtime := flag.String("benchtime", "", "the -benchtime the converted run was taken at, recorded in the report (go test's default is 1s)")
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchjson: -compare needs exactly two report files: old.json new.json")
			os.Exit(2)
		}
		regressed, err := runCompare(flag.Arg(0), flag.Arg(1), *threshold, os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(2)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}
	if err := convert(os.Stdin, os.Stdout, *benchtime); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// convert parses benchmark output from in, taken at benchtime ("" when
// unknown), and writes the JSON report to out.
func convert(in io.Reader, out io.Writer, benchtime string) error {
	bt, err := normalizeBenchtime(benchtime)
	if err != nil {
		return err
	}
	rep := Report{NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Benchtime: bt}
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			rep.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			rep.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "pkg:"):
			rep.Pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "cpu:"):
			rep.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "Benchmark"):
			if e, ok := parseBenchLine(line); ok {
				rep.Benchmarks = append(rep.Benchmarks, e)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	return enc.Encode(&rep)
}

// normalizeBenchtime checks a -benchtime value and writes it one way, so
// "1s" and "1000ms" record alike: an iteration count "Nx", or a duration.
func normalizeBenchtime(bt string) (string, error) {
	if bt == "" {
		return "", nil
	}
	if n, ok := strings.CutSuffix(bt, "x"); ok {
		if k, err := strconv.Atoi(n); err == nil && k > 0 {
			return strconv.Itoa(k) + "x", nil
		}
	} else if d, err := time.ParseDuration(bt); err == nil && d > 0 {
		return d.String(), nil
	}
	return "", fmt.Errorf("-benchtime %q is neither a positive iteration count (3x) nor a positive duration (1s)", bt)
}

// parseBenchLine parses one benchmark result line, e.g.
//
//	BenchmarkFigure4-8  3  19145442 ns/op  34.25 latency-ms  1404325 B/op  6567 allocs/op
func parseBenchLine(line string) (Entry, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return Entry{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Entry{}, false
	}
	e := Entry{Name: fields[0], Iterations: iters}
	// The remainder alternates (value, unit).
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Entry{}, false
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			e.NsPerOp = v
		case "B/op":
			e.BytesPerOp = v
		case "allocs/op":
			e.AllocsPerOp = v
		default:
			if e.Extra == nil {
				e.Extra = map[string]float64{}
			}
			e.Extra[unit] = v
		}
	}
	return e, true
}

// loadReport reads one JSON benchmark report.
func loadReport(path string) (*Report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var rep Report
	if err := json.NewDecoder(f).Decode(&rep); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rep, nil
}

// runCompare diffs two reports benchmark by benchmark and reports whether
// any metric regressed past the threshold. Benchmarks present on only one
// side are listed but never fail the gate (added/removed benchmarks are a
// review question, not a perf regression). Fast benchmarks (under 100µs
// per op) are compared but exempt from failing on ns/op: at smoke-bench
// iteration counts their timing swings are scheduler noise, not signal —
// allocs/op, which is exact, still gates them.
func runCompare(oldPath, newPath string, threshold float64, out io.Writer) (bool, error) {
	oldRep, err := loadReport(oldPath)
	if err != nil {
		return false, err
	}
	newRep, err := loadReport(newPath)
	if err != nil {
		return false, err
	}
	switch {
	case oldRep.NProc == 0 || newRep.NProc == 0:
		fmt.Fprintln(out, "note: a report does not record its core count; comparing anyway")
	case oldRep.NProc != newRep.NProc || oldRep.GOMAXPROCS != newRep.GOMAXPROCS:
		return false, fmt.Errorf("core counts differ: %s has nproc %d GOMAXPROCS %d, %s has nproc %d GOMAXPROCS %d; take both reports on the same core count",
			oldPath, oldRep.NProc, oldRep.GOMAXPROCS, newPath, newRep.NProc, newRep.GOMAXPROCS)
	}
	switch {
	case oldRep.Benchtime == "" || newRep.Benchtime == "":
		fmt.Fprintln(out, "note: a report does not record its benchtime; comparing anyway")
	case oldRep.Benchtime != newRep.Benchtime:
		return false, fmt.Errorf("benchtimes differ: %s was taken at -benchtime %s, %s at %s; take both reports at the same benchtime",
			oldPath, oldRep.Benchtime, newPath, newRep.Benchtime)
	}
	oldBy := make(map[string]Entry, len(oldRep.Benchmarks))
	for _, e := range oldRep.Benchmarks {
		oldBy[e.Name] = e
	}
	const minNsFloor = 100_000 // below 100µs/op, ns/op deltas are noise
	regressed := false
	fmt.Fprintf(out, "benchmark comparison (threshold %+.0f%%)\n", threshold*100)
	for _, n := range newRep.Benchmarks {
		o, ok := oldBy[n.Name]
		if !ok {
			fmt.Fprintf(out, "  %-40s new benchmark (no baseline)\n", n.Name)
			continue
		}
		delete(oldBy, n.Name)
		nsDelta := relDelta(o.NsPerOp, n.NsPerOp)
		allocDelta := relDelta(o.AllocsPerOp, n.AllocsPerOp)
		status := "ok"
		if nsDelta > threshold && n.NsPerOp >= minNsFloor {
			status = "REGRESSION (ns/op)"
			regressed = true
		}
		if allocDelta > threshold {
			status = "REGRESSION (allocs/op)"
			regressed = true
		}
		fmt.Fprintf(out, "  %-40s ns/op %12.0f -> %12.0f (%+6.1f%%)  allocs/op %8.0f -> %8.0f (%+6.1f%%)  %s\n",
			n.Name, o.NsPerOp, n.NsPerOp, nsDelta*100,
			o.AllocsPerOp, n.AllocsPerOp, allocDelta*100, status)
	}
	removed := make([]string, 0, len(oldBy))
	for name := range oldBy {
		removed = append(removed, name)
	}
	sort.Strings(removed)
	for _, name := range removed {
		fmt.Fprintf(out, "  %-40s removed (was in baseline)\n", name)
	}
	if regressed {
		fmt.Fprintln(out, "FAIL: at least one benchmark regressed past the threshold")
	}
	return regressed, nil
}

// relDelta returns (new-old)/old, treating a zero baseline as no change
// (a metric that was absent cannot regress).
func relDelta(old, new float64) float64 {
	if old == 0 {
		return 0
	}
	return (new - old) / old
}
