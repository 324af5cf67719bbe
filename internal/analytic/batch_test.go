package analytic

import (
	"context"
	"math"
	"reflect"
	"testing"

	"hmscs/internal/core"
	"hmscs/internal/network"
)

func batchConfigs(t *testing.T) []*core.Config {
	t.Helper()
	var cfgs []*core.Config
	for _, c := range []int{2, 4, 8, 16} {
		cfg, err := core.PaperConfig(core.Case1, c, 1024, network.NonBlocking)
		if err != nil {
			t.Fatal(err)
		}
		cfgs = append(cfgs, cfg)
	}
	return cfgs
}

func TestAnalyzeBatchMatchesSingle(t *testing.T) {
	cfgs := batchConfigs(t)
	batch, err := AnalyzeBatchCtx(context.Background(), cfgs, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, cfg := range cfgs {
		single, err := Analyze(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if batch[i].MeanLatency != single.MeanLatency {
			t.Fatalf("config %d: batch %v vs single %v", i, batch[i].MeanLatency, single.MeanLatency)
		}
	}
	// A bursty SCV routes through the G/G/1 correction.
	bursty, err := AnalyzeBatchCtx(context.Background(), cfgs, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cfgs {
		corrected, err := AnalyzeArrival(cfgs[i], 4)
		if err != nil {
			t.Fatal(err)
		}
		if bursty[i].MeanLatency != corrected.MeanLatency {
			t.Fatalf("config %d: batch SCV=4 diverges from AnalyzeArrival", i)
		}
		if bursty[i].MeanLatency <= batch[i].MeanLatency {
			t.Fatalf("config %d: burst correction did not raise latency", i)
		}
	}
	// An infinite SCV (Pareto tails) falls back to the plain model.
	inf, err := AnalyzeBatchCtx(context.Background(), cfgs[:1], math.Inf(1), 0)
	if err != nil {
		t.Fatal(err)
	}
	if inf[0].MeanLatency != batch[0].MeanLatency {
		t.Fatal("infinite SCV should fall back to the M/M/1 model")
	}
}

func TestAnalyzeBatchParallelismInvariance(t *testing.T) {
	cfgs := batchConfigs(t)
	seq, err := AnalyzeBatchCtx(context.Background(), cfgs, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	par, err := AnalyzeBatchCtx(context.Background(), cfgs, 1, 8)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatal("batch analysis differs between parallelism 1 and 8")
	}
}

func TestAnalyzeBatchLowestIndexError(t *testing.T) {
	good := batchConfigs(t)[0]
	bad := &core.Config{} // fails validation
	if _, err := AnalyzeBatchCtx(context.Background(), []*core.Config{good, bad, bad}, 1, 4); err == nil {
		t.Fatal("invalid configuration accepted")
	}
}
