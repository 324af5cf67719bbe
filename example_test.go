package hmscs_test

import (
	"context"
	"errors"
	"fmt"

	"hmscs"
)

// Example_experimentJSON shows the unified experiment API's spec form:
// one JSON document describes a whole experiment, round-trips through
// ParseExperiment/Marshal, and runs identically from Go, any binary's
// -spec flag, or a job submitted to the experiment server.
func Example_experimentJSON() {
	spec, err := hmscs.ParseExperiment([]byte(`{
		"v": 1,
		"kind": "simulate",
		"system": {"clusters": 8, "msg_bytes": 512},
		"run": {"seed": 3, "messages": 1000, "reps": 2}
	}`))
	if err != nil {
		panic(err)
	}
	// Unset fields were normalized to the documented defaults.
	fmt.Printf("kind = %s\n", spec.Kind)
	fmt.Printf("clusters = %d, arrival = %s\n", spec.System.Clusters, spec.Workload.Arrival)
	out, err := hmscs.Run(context.Background(), spec, hmscs.RunOptions{})
	if err != nil {
		panic(err)
	}
	fmt.Printf("replications = %d\n", len(out.Simulate.Agg.PerReplication))
	// Output:
	// kind = simulate
	// clusters = 8, arrival = poisson
	// replications = 2
}

// ExampleRun_cancel shows the Runner's context contract: cancellation
// aborts an experiment between replication units and surfaces ctx.Err(),
// with the worker pool fully drained before Run returns.
func ExampleRun_cancel() {
	spec := hmscs.NewExperiment(hmscs.KindSweep)
	spec.Sweep.Var = "clusters"
	spec.Run.Reps = 8
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // a deadline via context.WithTimeout behaves the same way
	_, err := hmscs.Run(ctx, spec, hmscs.RunOptions{})
	fmt.Println("cancelled:", errors.Is(err, context.Canceled))
	// Output:
	// cancelled: true
}

// ExampleAnalyze evaluates the paper's analytical model on the §6
// validation platform.
func ExampleAnalyze() {
	cfg, err := hmscs.PaperConfig(hmscs.Case1, 16, 1024, hmscs.NonBlocking)
	if err != nil {
		panic(err)
	}
	res, err := hmscs.Analyze(cfg)
	if err != nil {
		panic(err)
	}
	fmt.Printf("P = %.4f (eq. 8)\n", res.P)
	fmt.Printf("latency = %.3f ms\n", res.MeanLatency*1e3)
	fmt.Printf("bottleneck = %v\n", res.Bottleneck().Kind)
	// Output:
	// P = 0.9412 (eq. 8)
	// latency = 34.121 ms
	// bottleneck = ICN2
}

// ExampleSimulate runs the discrete-event validation with a fixed seed.
func ExampleSimulate() {
	cfg, err := hmscs.PaperConfig(hmscs.Case2, 8, 512, hmscs.NonBlocking)
	if err != nil {
		panic(err)
	}
	opts := hmscs.DefaultSimOptions()
	opts.Seed = 7
	opts.WarmupMessages = 500
	opts.MeasuredMessages = 2000
	res, err := hmscs.Simulate(cfg, opts)
	if err != nil {
		panic(err)
	}
	fmt.Printf("measured %d messages\n", res.Measured)
	fmt.Printf("latency within model's 10%%: %v\n", func() bool {
		pred, err := hmscs.Analyze(cfg)
		if err != nil {
			panic(err)
		}
		rel := (pred.MeanLatency - res.MeanLatency()) / res.MeanLatency()
		return rel < 0.1 && rel > -0.1
	}())
	// Output:
	// measured 2000 messages
	// latency within model's 10%: true
}

// ExampleSimulate_arrival relaxes the paper's Poisson assumption 2: the
// same configuration is simulated under Poisson and under a
// mean-rate-preserving MMPP-2 burst process, so the latency difference is
// attributable to burstiness alone. AnalyzeArrival is the model-side
// counterpart (Allen–Cunneen G/G/1 correction driven by the process's
// interarrival SCV).
func ExampleSimulate_arrival() {
	cfg, err := hmscs.NewSuperCluster(4, 8, 220,
		hmscs.GigabitEthernet, hmscs.FastEthernet,
		hmscs.NonBlocking, hmscs.PaperSwitch, 1024)
	if err != nil {
		panic(err)
	}
	opts := hmscs.DefaultSimOptions()
	opts.Seed = 11
	opts.WarmupMessages = 500
	opts.MeasuredMessages = 6000
	// Open loop, so the offered load really is equal: the paper's
	// closed-loop assumption 4 throttles a bursting source by its own
	// outstanding message (see DESIGN.md §6).
	opts.OpenLoop = true
	opts.MaxSimTime = 120

	poisson, err := hmscs.Simulate(cfg, opts)
	if err != nil {
		panic(err)
	}
	mmpp, err := hmscs.NewMMPP(10, 0.1) // 10x bursts, same mean load
	if err != nil {
		panic(err)
	}
	mmpp.Dwell = 5 // short bursts: many on/off cycles per run
	opts.Arrival = mmpp
	bursty, err := hmscs.Simulate(cfg, opts)
	if err != nil {
		panic(err)
	}
	fmt.Printf("interarrival SCV: %.2f vs 1.00\n", opts.Arrival.SCV())
	fmt.Printf("bursty latency measurably higher at equal load: %v\n",
		bursty.MeanLatency() > 1.1*poisson.MeanLatency())

	corrected, err := hmscs.AnalyzeArrival(cfg, opts.Arrival.SCV())
	if err != nil {
		panic(err)
	}
	plain, err := hmscs.Analyze(cfg)
	if err != nil {
		panic(err)
	}
	fmt.Printf("model correction moves the same way: %v\n",
		corrected.MeanLatency > plain.MeanLatency)
	// Output:
	// interarrival SCV: 2.35 vs 1.00
	// bursty latency measurably higher at equal load: true
	// model correction moves the same way: true
}

// ExampleNewSuperCluster builds a custom design and compares the two
// interconnect architectures.
func ExampleNewSuperCluster() {
	nb, err := hmscs.NewSuperCluster(8, 16, 100,
		hmscs.GigabitEthernet, hmscs.FastEthernet,
		hmscs.NonBlocking, hmscs.PaperSwitch, 1024)
	if err != nil {
		panic(err)
	}
	bl, err := hmscs.NewSuperCluster(8, 16, 100,
		hmscs.GigabitEthernet, hmscs.FastEthernet,
		hmscs.Blocking, hmscs.PaperSwitch, 1024)
	if err != nil {
		panic(err)
	}
	rNB, err := hmscs.Analyze(nb)
	if err != nil {
		panic(err)
	}
	rBL, err := hmscs.Analyze(bl)
	if err != nil {
		panic(err)
	}
	fmt.Printf("blocking slower: %v\n", rBL.MeanLatency > rNB.MeanLatency)
	// Output:
	// blocking slower: true
}

// ExampleFigure regenerates one paper figure analytically.
func ExampleFigure() {
	spec, err := hmscs.Figure(4)
	if err != nil {
		panic(err)
	}
	opts := hmscs.DefaultSweepOptions()
	opts.SkipSimulation = true
	res, err := hmscs.RunFigure(spec, opts)
	if err != nil {
		panic(err)
	}
	fmt.Printf("%s: %d curves x %d points\n",
		res.Spec.Name, len(res.Series), len(res.Series[0].Clusters))
	// Output:
	// Figure 4: 2 curves x 9 points
}

// ExamplePlanScreen asks the capacity planner's screening stage the
// paper's inverse question: which designs serve 100 msg/s per processor
// on at least 64 processors within a 2 ms budget, and what is the
// cheapest one?
func ExamplePlanScreen() {
	space := hmscs.DefaultDesignSpace()
	space.Lambda = 100
	slo := hmscs.SLO{MaxLatency: 2e-3, MinNodes: 64}
	screened, err := hmscs.PlanScreen(space, slo, hmscs.DefaultCostModel(), 1, 0)
	if err != nil {
		panic(err)
	}
	frontier := hmscs.PlanFrontier(screened)
	fmt.Printf("screened %d candidates, frontier %d\n", len(screened), len(frontier))
	best := frontier[0]
	fmt.Printf("cheapest: %s at cost %.2f, predicted %.3f ms\n",
		best.Label(), best.Cost, best.Predicted*1e3)
	// Output:
	// screened 1584 candidates, frontier 8
	// cheapest: C=4 N=16 GE/FE/FE nb h=1 at cost 76.00, predicted 0.812 ms
}
