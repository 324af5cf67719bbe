package dist_test

import (
	"fmt"
	"math"
	"testing"

	"hmscs/internal/dist"
	"hmscs/internal/rng"
	"hmscs/internal/sim"
	"hmscs/internal/stats"
)

// specialFloats are finite values at the edges of the float64 encoding:
// signed zeros, the smallest subnormal, the largest normal and values
// whose shortest decimal form is long.
var specialFloats = []float64{0, math.Copysign(0, -1), math.SmallestNonzeroFloat64,
	-math.SmallestNonzeroFloat64, math.MaxFloat64, -math.MaxFloat64, 0.1, 1.0 / 3, 2.5e-308}

// finiteFloat draws a finite float64 from every exponent range: raw bits
// with the exponent kept off all-ones, or one of specialFloats.
func finiteFloat(st *rng.Stream) float64 {
	if st.Intn(8) == 0 {
		return specialFloats[st.Intn(len(specialFloats))]
	}
	x := st.Uint64()
	if math.IsNaN(math.Float64frombits(x)) || math.IsInf(math.Float64frombits(x), 0) {
		x &^= 1 << 62 // clear the exponent's top bit
	}
	return math.Float64frombits(x)
}

// seededResult builds a finite sim.Result from seed. Slice lengths come
// from the fuzzer; shape bit i makes slice i nil rather than empty when its
// length is zero.
func seededResult(seed uint64, nSample, nTimes, nCenters uint8, shape uint8) *sim.Result {
	st := rng.NewStream(seed)
	floats := func(n uint8, nilWhenEmpty bool) []float64 {
		if n == 0 && nilWhenEmpty {
			return nil
		}
		out := make([]float64, n)
		for i := range out {
			out[i] = finiteFloat(st)
		}
		return out
	}
	r := &sim.Result{
		Latency: stats.RestoreWelford(stats.WelfordState{
			N: int64(st.Uint64() >> 1), Mean: finiteFloat(st), M2: finiteFloat(st),
			Min: finiteFloat(st), Max: finiteFloat(st),
		}),
		Sample:          floats(nSample, shape&1 != 0),
		SampleTimes:     floats(nTimes, shape&2 != 0),
		SimTime:         finiteFloat(st),
		Generated:       int64(st.Uint64()),
		Measured:        int64(st.Uint64()),
		Throughput:      finiteFloat(st),
		EffectiveLambda: finiteFloat(st),
		TimedOut:        st.Intn(2) == 0,
		Dropped:         int64(st.Uint64()),
		Rerouted:        int64(st.Uint64()),
	}
	if nCenters > 0 || shape&4 == 0 {
		r.Centers = make([]sim.CenterStats, nCenters)
	}
	for i := range r.Centers {
		r.Centers[i] = sim.CenterStats{
			Name:            fmt.Sprintf("ECN1[%d]", i),
			Utilization:     finiteFloat(st),
			MeanQueueLength: finiteFloat(st),
			MaxQueueLength:  finiteFloat(st),
			Served:          int64(st.Uint64()),
		}
	}
	return r
}

// floatsDiffer compares two float slices bit for bit. nil and empty are
// the same on the wire (an empty slice is omitted), so only lengths and
// element bits count.
func floatsDiffer(a, b []float64) bool {
	if len(a) != len(b) {
		return true
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return true
		}
	}
	return false
}

func bitsDiffer(a, b float64) bool { return math.Float64bits(a) != math.Float64bits(b) }

// FuzzResultRoundTrip checks the dist result codec on seeded finite
// results: every float must survive encode → JSON → decode bit for bit
// (math.Float64bits, so signed zeros and subnormals count), with every
// counter, flag and centre name intact and nil or empty slices included.
func FuzzResultRoundTrip(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint8(0), uint8(0), uint8(0))
	f.Add(uint64(2), uint8(0), uint8(0), uint8(0), uint8(7))
	f.Add(uint64(3), uint8(16), uint8(16), uint8(5), uint8(0))
	f.Add(uint64(4), uint8(200), uint8(0), uint8(33), uint8(2))
	f.Fuzz(func(t *testing.T, seed uint64, nSample, nTimes, nCenters, shape uint8) {
		in := seededResult(seed, nSample, nTimes, nCenters, shape)
		out, err := dist.RoundTripResult(in)
		if err != nil {
			t.Fatal(err)
		}
		if a, b := in.Latency.State(), out.Latency.State(); a.N != b.N || bitsDiffer(a.Mean, b.Mean) ||
			bitsDiffer(a.M2, b.M2) || bitsDiffer(a.Min, b.Min) || bitsDiffer(a.Max, b.Max) {
			t.Fatalf("Welford state %+v came back as %+v", a, b)
		}
		if floatsDiffer(in.Sample, out.Sample) || floatsDiffer(in.SampleTimes, out.SampleTimes) {
			t.Fatal("a sample vector changed across the wire")
		}
		if bitsDiffer(in.SimTime, out.SimTime) || bitsDiffer(in.Throughput, out.Throughput) ||
			bitsDiffer(in.EffectiveLambda, out.EffectiveLambda) {
			t.Fatalf("aggregate floats changed: %v/%v/%v vs %v/%v/%v", in.SimTime, in.Throughput,
				in.EffectiveLambda, out.SimTime, out.Throughput, out.EffectiveLambda)
		}
		if in.Generated != out.Generated || in.Measured != out.Measured || in.TimedOut != out.TimedOut ||
			in.Dropped != out.Dropped || in.Rerouted != out.Rerouted {
			t.Fatal("a counter or flag changed across the wire")
		}
		if len(in.Centers) != len(out.Centers) {
			t.Fatalf("%d centres came back as %d", len(in.Centers), len(out.Centers))
		}
		for i, a := range in.Centers {
			b := out.Centers[i]
			if a.Name != b.Name || a.Served != b.Served || bitsDiffer(a.Utilization, b.Utilization) ||
				bitsDiffer(a.MeanQueueLength, b.MeanQueueLength) || bitsDiffer(a.MaxQueueLength, b.MaxQueueLength) {
				t.Fatalf("centre %d %+v came back as %+v", i, a, b)
			}
		}
	})
}
