// Model-fidelity ladder: the same multi-cluster platform evaluated at
// every abstraction level this repository implements, from closed-form
// queueing to switch-level simulation. The spread between rungs shows what
// each modelling assumption costs — the quantitative version of the
// paper's §2 argument that analytical models trade fidelity for speed.
//
// Rungs (fast to slow):
//  1. paper's analytical model (M/M/1 centres + eq. 7 iteration)
//  2. M/G/1 generalisation with deterministic service (SCV=0)
//  3. exact closed-network MVA
//  4. approximate (Schweitzer) MVA and operational bounds
//  5. discrete-event system simulation (one queue per network)
//  6. switch-level simulation of the busiest network (one queue per link)
package main

import (
	"fmt"
	"log"
	"time"

	"hmscs"
	"hmscs/internal/analytic"
	"hmscs/internal/netsim"
	"hmscs/internal/queueing"
)

func main() {
	const clusters, msg = 16, 1024
	cfg, err := hmscs.PaperConfig(hmscs.Case1, clusters, msg, hmscs.NonBlocking)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("platform:", cfg)
	fmt.Println()
	fmt.Println("rung                                   | latency (ms) | wall time")

	timeIt := func(name string, f func() (float64, error)) {
		start := time.Now()
		v, err := f()
		if err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		fmt.Printf("%-38s | %10.3f   | %v\n", name, v*1e3, time.Since(start).Round(10*time.Microsecond))
	}

	timeIt("1. paper model (M/M/1 + eq.7)", func() (float64, error) {
		r, err := analytic.Analyze(cfg)
		if err != nil {
			return 0, err
		}
		return r.MeanLatency, nil
	})
	timeIt("2. M/G/1 variant, deterministic svc", func() (float64, error) {
		r, err := analytic.AnalyzeSCV(cfg, 0)
		if err != nil {
			return 0, err
		}
		return r.MeanLatency, nil
	})
	timeIt("3. exact MVA (closed network)", func() (float64, error) {
		r, err := analytic.AnalyzeMVA(cfg)
		if err != nil {
			return 0, err
		}
		return r.MeanLatency, nil
	})
	timeIt("4. Schweitzer approximate MVA", func() (float64, error) {
		stations, think, err := cfg.MVAStations()
		if err != nil {
			return 0, err
		}
		r, err := queueing.ApproxMVA(stations, think, cfg.TotalNodes())
		if err != nil {
			return 0, err
		}
		return r.ResponseTime(think), nil
	})
	timeIt("5. system simulation (10k msgs)", func() (float64, error) {
		r, err := hmscs.Simulate(cfg, hmscs.DefaultSimOptions())
		if err != nil {
			return 0, err
		}
		return r.MeanLatency(), nil
	})

	// Rung 6: the bottleneck network (FE ICN2 with 16 cluster endpoints)
	// simulated switch by switch. Its endpoints are clusters, so we drive
	// it with the per-cluster remote traffic the system model derives.
	rates := cfg.ArrivalRates(1)
	perCluster := rates.ICN2 / float64(clusters)
	fmt.Println()
	fmt.Printf("switch-level view of the bottleneck (ICN2: FastEthernet, %d endpoints,\n", clusters)
	fmt.Printf("offered %.0f msg/s per endpoint — the raw demand before eq. 7 throttling):\n", perCluster)
	net, err := netsim.BuildFatTree(clusters, cfg.Switch.Ports, cfg.ICN2, cfg.Switch)
	if err != nil {
		log.Fatal(err)
	}
	opts := hmscs.DefaultSimOptions()
	opts.WarmupMessages = 1000
	res, err := net.Run(perCluster, msg, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("  mean transit latency  %.3f ms (closed-loop, per-endpoint blocking)\n", res.Latency.Mean()*1e3)
	fmt.Printf("  carried throughput    %.0f msg/s (vs %.0f offered system-wide)\n",
		res.Throughput, rates.ICN2)
	host, fabric := netsim.LinkUtilization(res, net.N)
	fmt.Printf("  max link utilisation  host %.3f / fabric %.3f\n", host, fabric)
	fmt.Println()
	fmt.Println("reading: rungs 1-5 agree within a few percent. At C=16 the ICN2 is a")
	fmt.Println("single 24-port switch (the paper's observed regime change), and the")
	fmt.Println("switch-level view shows the single-server M/M/1 abstraction is")
	fmt.Println("conservative: one queue serialises everything at ~5.6k msg/s, while")
	fmt.Println("the real switch serves its ports in parallel and carries far more.")
}
