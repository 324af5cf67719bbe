package sim

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"hmscs/internal/core"
	"hmscs/internal/network"
	"hmscs/internal/rng"
	"hmscs/internal/scenario"
	"hmscs/internal/trace"
	"hmscs/internal/workload"
)

// sameBits reports the first field where a and b differ, walking every
// field (unexported ones included, so the Welford state counts) and
// comparing floats by math.Float64bits; "" means they are bit-identical.
func sameBits(path string, a, b reflect.Value) string {
	switch a.Kind() {
	case reflect.Float64:
		if math.Float64bits(a.Float()) != math.Float64bits(b.Float()) {
			return fmt.Sprintf("%s: %v vs %v", path, a.Float(), b.Float())
		}
	case reflect.Int, reflect.Int64:
		if a.Int() != b.Int() {
			return fmt.Sprintf("%s: %d vs %d", path, a.Int(), b.Int())
		}
	case reflect.Bool:
		if a.Bool() != b.Bool() {
			return fmt.Sprintf("%s: %v vs %v", path, a.Bool(), b.Bool())
		}
	case reflect.String:
		if a.String() != b.String() {
			return fmt.Sprintf("%s: %q vs %q", path, a.String(), b.String())
		}
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if d := sameBits(path+"."+a.Type().Field(i).Name, a.Field(i), b.Field(i)); d != "" {
				return d
			}
		}
	case reflect.Slice:
		if a.Len() != b.Len() || a.IsNil() != b.IsNil() {
			return fmt.Sprintf("%s: len %d (nil %v) vs %d (nil %v)", path, a.Len(), a.IsNil(), b.Len(), b.IsNil())
		}
		for i := 0; i < a.Len(); i++ {
			if d := sameBits(fmt.Sprintf("%s[%d]", path, i), a.Index(i), b.Index(i)); d != "" {
				return d
			}
		}
	default:
		panic(fmt.Sprintf("sameBits: unhandled kind %v at %s", a.Kind(), path))
	}
	return ""
}

func requireSameBits(t *testing.T, label string, a, b *Result) {
	t.Helper()
	if d := sameBits("Result", reflect.ValueOf(*a), reflect.ValueOf(*b)); d != "" {
		t.Fatalf("%s: %s", label, d)
	}
}

// cloneResult deep-copies r, so a later run that wrote into r's slices
// would show.
func cloneResult(r *Result) *Result {
	c := *r
	c.Sample = slices.Clone(r.Sample)
	c.SliceSums = slices.Clone(r.SliceSums)
	c.SliceCounts = slices.Clone(r.SliceCounts)
	c.Centers = slices.Clone(r.Centers)
	return &c
}

// poolCase is one run of the reuse sequence.
type poolCase struct {
	name string
	cfg  *core.Config
	opts Options
}

// poolSequence is a run sequence that changes every axis a reused
// simulator keeps storage for: cluster count (256 down to 1), processor
// count, scenario state (the first timeline ends with a centre and nodes
// down), open-loop message growth, sample recording, arrival processes
// with and without per-source state, the service family and the trace
// recorder.
func poolSequence(t *testing.T) []poolCase {
	t.Helper()
	paper := func(c int, arch network.Architecture) *core.Config {
		cfg, err := core.PaperConfig(core.Case1, c, 1024, arch)
		if err != nil {
			t.Fatal(err)
		}
		return cfg
	}
	wide := wideCfg(t, 400, network.NonBlocking)
	built, err := wide.BuildCenters()
	if err != nil {
		t.Fatal(err)
	}
	w := built.ICN2.MeanServiceTime(wide.MessageBytes)
	cs, err := scenario.CompileSim(&scenario.Spec{HorizonS: 2048 * w, Events: []scenario.Event{
		// ICN1[5] and cluster 7 stay down at the horizon, so their
		// scenario state must not leak into the next scenario run.
		{TS: 64 * w, Action: "fail", Target: "icn1:5", Policy: "reroute"},
		{TS: 768 * w, Action: "fail", Target: "icn2", Policy: "drop"},
		{TS: 1024 * w, Action: "repair", Target: "icn2"},
		{TS: 1200 * w, Action: "fail", Target: "cluster:7", Policy: "drop"},
	}}, wide)
	if err != nil {
		t.Fatal(err)
	}
	requeue, err := scenario.CompileSim(&scenario.Spec{HorizonS: 1024 * w, Events: []scenario.Event{
		{TS: 256 * w, Action: "fail", Target: "icn2", Policy: "requeue"},
		{TS: 512 * w, Action: "repair", Target: "icn2"},
	}}, wide)
	if err != nil {
		t.Fatal(err)
	}
	mmpp, err := workload.NewMMPP(10, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	pareto, err := workload.NewPareto(1.5)
	if err != nil {
		t.Fatal(err)
	}
	with := func(seed uint64, measured int, set func(*Options)) Options {
		o := quickOpts(seed, measured)
		set(&o)
		return o
	}
	return []poolCase{
		{"paper C=256", paper(256, network.NonBlocking), quickOpts(1, 2000)},
		{"scenario drop+reroute", wide, dynOpts(23, cs)},
		{"open loop", smallCfg(t, 200, network.NonBlocking), with(2, 1500, func(o *Options) { o.OpenLoop = true })},
		{"record sample", paper(32, network.Blocking), with(5, 1500, func(o *Options) { o.RecordSample = true })},
		{"mmpp", smallCfg(t, 150, network.NonBlocking), with(6, 1000, func(o *Options) { o.Arrival = mmpp })},
		{"pareto M/D", wideCfg(t, 100, network.Blocking), with(7, 1000, func(o *Options) {
			o.Arrival = pareto
			o.ServiceDist = rng.Deterministic{Value: 1}
		})},
		{"traced", smallCfg(t, 100, network.NonBlocking), with(8, 300, func(o *Options) { o.Trace = trace.NewRecorder(0) })},
		{"timed out", paper(4, network.NonBlocking), with(9, 100000, func(o *Options) {
			o.RecordSample = true
			o.MaxSimTime = 0.05
		})},
		{"scenario requeue", wide, dynOpts(24, requeue)},
		{"small C=4", smallCfg(t, 50, network.NonBlocking), quickOpts(10, 1000)},
		{"paper C=1", paper(1, network.NonBlocking), quickOpts(11, 1000)},
	}
}

// TestPooledRunMatchesFresh runs a sequence of differently shaped
// replications on one goroutine through the pooled Run and through one
// explicitly reused simulator. Every result must be bit-identical to a
// fresh New + Run of the same configuration, and no result may change
// after later runs reuse the storage its simulator ran in.
func TestPooledRunMatchesFresh(t *testing.T) {
	cases := poolSequence(t)
	reused := new(Simulator)
	var kept, copies []*Result
	for _, tc := range cases {
		s, err := New(tc.cfg, tc.opts)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		fresh, err := s.Run()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		pooled, err := Run(tc.cfg, tc.opts)
		if err != nil {
			t.Fatalf("%s: pooled: %v", tc.name, err)
		}
		again, err := reused.rerun(tc.cfg, tc.opts)
		if err != nil {
			t.Fatalf("%s: reused: %v", tc.name, err)
		}
		requireSameBits(t, tc.name+" (pooled)", fresh, pooled)
		requireSameBits(t, tc.name+" (reused)", fresh, again)
		kept = append(kept, pooled, again)
		copies = append(copies, cloneResult(pooled), cloneResult(again))
	}
	for i := range kept {
		requireSameBits(t, cases[i/2].name+" after later runs", copies[i], kept[i])
	}
	// The sequence must exercise what it claims to.
	pooled := func(name string) *Result {
		for i, tc := range cases {
			if tc.name == name {
				return kept[2*i]
			}
		}
		t.Fatalf("no pool case %q", name)
		return nil
	}
	if r := pooled("scenario drop+reroute"); r.Dropped == 0 || r.Rerouted == 0 {
		t.Fatalf("scenario run dropped %d and rerouted %d messages; want both", r.Dropped, r.Rerouted)
	}
	if r := pooled("timed out"); !r.TimedOut {
		t.Fatal("the timed-out run finished")
	}
}

// TestReleasedSimulatorHoldsNoRunState pins what a pooled simulator keeps
// between replications: storage, but no reference to the last run's
// configuration, options, result, sources or service family.
func TestReleasedSimulatorHoldsNoRunState(t *testing.T) {
	cfg := smallCfg(t, 100, network.NonBlocking)
	o := quickOpts(3, 500)
	o.RecordSample = true
	o.Trace = trace.NewRecorder(0)
	s := new(Simulator)
	if _, err := s.rerun(cfg, o); err != nil {
		t.Fatal(err)
	}
	if s.cfg != nil || s.scn != nil || !reflect.DeepEqual(s.opts, Options{}) ||
		s.gen != (workload.Generator{}) || s.res.Sample != nil || s.res.Centers != nil ||
		s.win.Sample != nil || s.profile != nil {
		t.Fatal("released simulator still references its last run")
	}
	for i, src := range s.sources[:cap(s.sources)] {
		if src != nil {
			t.Fatalf("released simulator keeps source %d", i)
		}
	}
	for i := range s.centers {
		if s.centers[i].distTpl != nil {
			t.Fatalf("released centre %d keeps its service family", i)
		}
	}
}

// TestRunAllocsIndependentOfClusterCount pins the pooled replication's
// allocation count: on a warm pool a 256-processor run allocates its
// Result, the centre statistics it owns and a constant, whether the
// processors form 1, 16 or 256 clusters. Built afresh, a replication
// allocated 566, 767 and 3.4k objects at those widths.
func TestRunAllocsIndependentOfClusterCount(t *testing.T) {
	reused := new(Simulator)
	run := func(cfg *core.Config, o Options) (*Result, error) { return reused.rerun(cfg, o) }
	if !raceEnabled {
		// The race detector's sync.Pool drops puts at random, so only a
		// plain build measures through the pool itself.
		run = Run
	}
	allocs := make(map[int]float64)
	for _, c := range []int{1, 16, 256} {
		cfg, err := core.PaperConfig(core.Case1, c, 1024, network.NonBlocking)
		if err != nil {
			t.Fatal(err)
		}
		o := quickOpts(17, 500)
		allocs[c] = testing.AllocsPerRun(5, func() {
			if _, err := run(cfg, o); err != nil {
				t.Fatal(err)
			}
		})
	}
	t.Logf("warm replication allocations at C=1/16/256: %v/%v/%v", allocs[1], allocs[16], allocs[256])
	const slack = 4
	lo := min(allocs[1], allocs[16], allocs[256])
	hi := max(allocs[1], allocs[16], allocs[256])
	if hi > lo+slack || hi > 16 {
		t.Fatalf("warm replication allocations at C=1/16/256: %v/%v/%v, want equal within %d and at most 16",
			allocs[1], allocs[16], allocs[256], slack)
	}
}

// TestSimulatorRunTwiceFails pins the single-use contract: a second Run
// returns an error at once, instead of resuming a closed-loop run whose
// measurement target is already met (which never stopped).
func TestSimulatorRunTwiceFails(t *testing.T) {
	s, err := New(smallCfg(t, 100, network.NonBlocking), quickOpts(4, 500))
	if err != nil {
		t.Fatal(err)
	}
	first, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	kept := cloneResult(first)
	done := make(chan error, 1)
	go func() {
		_, err := s.Run()
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, errRunTwice) {
			t.Fatalf("second Run: err = %v, want errRunTwice", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("second Run did not return within 5s")
	}
	requireSameBits(t, "first result after a second Run", kept, first)
}

// TestCenterNamesConcurrent grows the shared name table from several
// goroutines at once: every table handed out must cover the width asked
// for with the names fmt would format.
func TestCenterNamesConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, c := range []int{3, 300, 17, 64, 512 - 64*g, 1} {
				tab := namesFor(c)
				for i := 0; i < c; i++ {
					if tab.icn1[i] != fmt.Sprintf("ICN1[%d]", i) || tab.ecn1[i] != fmt.Sprintf("ECN1[%d]", i) {
						t.Errorf("width %d: names %q, %q at %d", c, tab.icn1[i], tab.ecn1[i], i)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}
