package workload

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"hmscs/internal/rng"
)

// Arrival is an arrival-process family: it describes how the interarrival
// gaps of a traffic source with a given mean rate are drawn. The paper's
// assumption 2 fixes this to Poisson; the other implementations open the
// burstiness axis (deterministic, MMPP-2, heavy-tailed renewal, trace
// replay) while preserving the configured mean rate, so burstiness can be
// varied at equal offered load.
//
// Every implementation is immutable and safe to share across concurrent
// replications: all per-source mutable state lives in the Source values
// returned by NewSource, and sampling draws only from the rng.Stream passed
// to Source.Next — the determinism contract that keeps results bit-identical
// at every parallelism level.
type Arrival interface {
	// Name identifies the process in reports, e.g. "mmpp(r=10,f=0.10)".
	Name() string
	// SCV returns the squared coefficient of variation of the stationary
	// interarrival time (1 for Poisson, 0 for deterministic, +Inf for
	// infinite-variance heavy tails). It is the burstiness summary threaded
	// to the analytic G/G/1 correction and the report columns.
	SCV() float64
	// NewSource instantiates the per-source state of one traffic source
	// with the given mean rate (msg/s). src is the source's global node id;
	// processes that stagger sources deterministically (trace replay) use
	// it, stochastic processes ignore it. NewSource must not draw random
	// numbers: construction is pure so that sharing an Arrival across
	// replications is race-free and reproducible.
	NewSource(rate float64, src int) Source
}

// Source is one traffic source's arrival state. Sources are single-use and
// not safe for concurrent use; each simulated processor owns one.
type Source interface {
	// Next returns the next interarrival gap in seconds, drawing only from
	// st (or from nothing at all, for replayed traces).
	Next(st *rng.Stream) float64
}

// Poisson is the paper's assumption 2: exponential interarrival gaps,
// memoryless, SCV 1. It draws exactly one exponential variate per gap, the
// same draw the pre-subsystem simulator made — results with Poisson arrivals
// are bit-identical to the hardcoded behaviour.
type Poisson struct{}

// Name implements Arrival.
func (Poisson) Name() string { return "poisson" }

// SCV implements Arrival.
func (Poisson) SCV() float64 { return 1 }

// NewSource implements Arrival.
func (Poisson) NewSource(rate float64, _ int) Source { return poissonSource{rate: rate} }

type poissonSource struct{ rate float64 }

func (s poissonSource) Next(st *rng.Stream) float64 { return st.ExpRate(s.rate) }

func (poissonSource) stateless() {}

// statelessSource marks the sources whose Next keeps no state and whose
// NewSource ignores src: one value serves every source of equal rate, so
// Sources boxes it once per run of equal rates, not once per source.
type statelessSource interface{ stateless() }

// Periodic is the deterministic arrival process: every gap is exactly
// 1/rate. SCV 0 — the zero-burstiness anchor of the arrival axis, the
// arrival-side analogue of the M/D/1 service ablation.
type Periodic struct{}

// Name implements Arrival.
func (Periodic) Name() string { return "periodic" }

// SCV implements Arrival.
func (Periodic) SCV() float64 { return 0 }

// NewSource implements Arrival. Sources are staggered deterministically by
// node id (first gap offset by the golden-ratio sequence) so a periodic
// workload models independent constant-rate sources rather than the
// pathological all-nodes-in-lockstep special case.
func (Periodic) NewSource(rate float64, src int) Source {
	gap := 1 / rate
	_, offset := math.Modf(float64(src) * math.Phi)
	return &periodicSource{gap: gap, first: gap * offset}
}

type periodicSource struct {
	gap   float64
	first float64 // staggered initial gap; <0 once consumed
}

func (s *periodicSource) Next(*rng.Stream) float64 {
	if s.first >= 0 {
		g := s.first
		s.first = -1
		return g
	}
	return s.gap
}

// DefaultMMPPDwell is the default mean burst-phase sojourn, measured in
// mean interarrival times (1/rate units): bursts long enough to build real
// queues, short enough that a 10k-message run sees many on/off cycles.
const DefaultMMPPDwell = 50

// MMPP is a two-phase Markov-modulated Poisson process: a background
// Markov chain alternates between a burst phase and an idle phase, and
// arrivals are Poisson at the phase's rate. It is the classic analytically
// tractable bursty-traffic model (Heffes & Lucantoni 1986).
//
// The parameterisation is chosen so the mean rate is always preserved
// (burstiness varies at equal offered load): BurstRatio fixes the ratio of
// the two phase rates, BurstFrac the stationary fraction of time spent in
// the burst phase, and the phase rates are solved from
// rate = f·λ_burst + (1−f)·λ_idle. BurstRatio may be +Inf, which yields the
// interrupted Poisson process (idle phase fully silent — an exponential
// on-off source). Dwell sets the burst-phase sojourn in units of the mean
// interarrival time, i.e. the expected number of arrivals per burst at the
// mean rate; see DESIGN.md §6.
type MMPP struct {
	// BurstRatio is λ_burst/λ_idle ≥ 1 (+Inf = on-off / IPP).
	BurstRatio float64
	// BurstFrac is the stationary probability of the burst phase, in (0,1).
	BurstFrac float64
	// Dwell is the mean burst sojourn in mean-interarrival units (> 0).
	Dwell float64
}

// NewMMPP builds a mean-rate-preserving MMPP-2 with the default dwell.
// burstRatio ≥ 1 (+Inf for a fully silent idle phase), 0 < burstFrac < 1.
func NewMMPP(burstRatio, burstFrac float64) (*MMPP, error) {
	if !(burstRatio >= 1) {
		return nil, fmt.Errorf("workload: MMPP burst ratio %g must be >= 1", burstRatio)
	}
	if !(burstFrac > 0 && burstFrac < 1) {
		return nil, fmt.Errorf("workload: MMPP burst fraction %g must be in (0,1)", burstFrac)
	}
	return &MMPP{BurstRatio: burstRatio, BurstFrac: burstFrac, Dwell: DefaultMMPPDwell}, nil
}

// Name implements Arrival.
func (m *MMPP) Name() string {
	return fmt.Sprintf("mmpp(r=%g,f=%.2f)", m.BurstRatio, m.BurstFrac)
}

// params solves the phase rates and phase-exit rates for a source of the
// given mean rate. Phase 0 is the burst phase.
func (m *MMPP) params(rate float64) (lam, sig [2]float64) {
	f, r := m.BurstFrac, m.BurstRatio
	if math.IsInf(r, 1) {
		lam[0], lam[1] = rate/f, 0
	} else {
		lam[1] = rate / (f*r + 1 - f)
		lam[0] = r * lam[1]
	}
	dwell := m.Dwell
	if dwell <= 0 {
		dwell = DefaultMMPPDwell
	}
	tBurst := dwell / rate
	tIdle := tBurst * (1 - f) / f
	sig[0], sig[1] = 1/tBurst, 1/tIdle
	return lam, sig
}

// SCV implements Arrival: the exact stationary interarrival SCV of the
// MMPP-2, via the phase-type representation of the interarrival time
// (initial vector = arrival-phase probabilities, generator Q − Λ):
// E[Tᵏ] = k!·φ·(Λ−Q)⁻ᵏ·1. Dimensionless, so it is evaluated at unit rate.
func (m *MMPP) SCV() float64 {
	lam, sig := m.params(1)
	// Stationary phase probabilities of the modulating chain.
	pi0 := sig[1] / (sig[0] + sig[1])
	pi1 := 1 - pi0
	mean := pi0*lam[0] + pi1*lam[1]
	// Phase probabilities embedded at arrival instants.
	phi0 := pi0 * lam[0] / mean
	phi1 := pi1 * lam[1] / mean
	// M = (Λ − Q)⁻¹ for the 2×2 case.
	a, b := lam[0]+sig[0], -sig[0]
	c, d := -sig[1], lam[1]+sig[1]
	det := a*d - b*c
	m00, m01 := d/det, -b/det
	m10, m11 := -c/det, a/det
	// First moment: φ·M·1.
	e1 := phi0*(m00+m01) + phi1*(m10+m11)
	// Second moment: 2·φ·M²·1, with M²·1 = M·(M·1).
	r0, r1 := m00+m01, m10+m11
	e2 := 2 * (phi0*(m00*r0+m01*r1) + phi1*(m10*r0+m11*r1))
	return e2/(e1*e1) - 1
}

// NewSource implements Arrival. The source's initial phase is drawn from
// the modulating chain's stationary distribution on the first Next call
// (construction itself stays RNG-free); exponential sojourns are
// memoryless, so this makes the modulating process stationary from time
// zero — without it every source would open in a synchronised global
// burst, biasing short measurement windows.
func (m *MMPP) NewSource(rate float64, _ int) Source {
	lam, sig := m.params(rate)
	return &mmppSource{lam: lam, sig: sig, piBurst: sig[1] / (sig[0] + sig[1])}
}

type mmppSource struct {
	lam, sig [2]float64
	piBurst  float64 // stationary probability of the burst phase
	ph       int
	started  bool
}

// Next walks the modulating chain: per visited phase it draws the phase
// sojourn and (if the phase generates) a competing exponential arrival
// candidate, accumulating sojourns until an arrival wins. Memorylessness
// makes discarding the losing candidate exact.
func (s *mmppSource) Next(st *rng.Stream) float64 {
	if !s.started {
		s.started = true
		if st.Float64() >= s.piBurst {
			s.ph = 1
		}
	}
	total := 0.0
	for {
		tSwitch := st.ExpRate(s.sig[s.ph])
		if lam := s.lam[s.ph]; lam > 0 {
			if tArr := st.ExpRate(lam); tArr < tSwitch {
				return total + tArr
			}
		}
		total += tSwitch
		s.ph = 1 - s.ph
	}
}

// Pareto is a heavy-tailed renewal arrival process: interarrival gaps are
// Pareto with shape Alpha, scaled to the configured mean rate. Alpha in
// (1,2] gives infinite variance — the regime where long-range-dependent
// traffic defeats Poisson-based predictions.
type Pareto struct {
	// Alpha is the tail exponent, > 1 (the mean must exist).
	Alpha float64
}

// NewPareto validates the tail exponent.
func NewPareto(alpha float64) (*Pareto, error) {
	if !(alpha > 1) || math.IsInf(alpha, 1) {
		return nil, fmt.Errorf("workload: Pareto alpha %g must be finite and > 1", alpha)
	}
	return &Pareto{Alpha: alpha}, nil
}

// Name implements Arrival.
func (p *Pareto) Name() string { return fmt.Sprintf("pareto(a=%g)", p.Alpha) }

// SCV implements Arrival: 1/(α(α−2)) for α > 2, +Inf otherwise.
func (p *Pareto) SCV() float64 {
	if p.Alpha <= 2 {
		return math.Inf(1)
	}
	return 1 / (p.Alpha * (p.Alpha - 2))
}

// NewSource implements Arrival.
func (p *Pareto) NewSource(rate float64, _ int) Source {
	// mean = α·xm/(α−1) = 1/rate.
	return paretoSource{xm: (p.Alpha - 1) / (p.Alpha * rate), inv: 1 / p.Alpha}
}

type paretoSource struct{ xm, inv float64 }

func (s paretoSource) Next(st *rng.Stream) float64 {
	return s.xm * math.Pow(st.Float64Open(), -s.inv)
}

func (paretoSource) stateless() {}

// Weibull is a renewal arrival process with Weibull-distributed gaps scaled
// to the configured mean rate. Shape < 1 gives a heavier-than-exponential
// tail (with all moments finite, unlike Pareto); Shape = 1 is Poisson.
type Weibull struct {
	// Shape is the Weibull shape k > 0.
	Shape float64
}

// NewWeibull validates the shape.
func NewWeibull(shape float64) (*Weibull, error) {
	if !(shape > 0) || math.IsInf(shape, 1) {
		return nil, fmt.Errorf("workload: Weibull shape %g must be finite and > 0", shape)
	}
	return &Weibull{Shape: shape}, nil
}

// Name implements Arrival.
func (w *Weibull) Name() string { return fmt.Sprintf("weibull(k=%g)", w.Shape) }

// SCV implements Arrival: Γ(1+2/k)/Γ(1+1/k)² − 1.
func (w *Weibull) SCV() float64 {
	g1 := math.Gamma(1 + 1/w.Shape)
	g2 := math.Gamma(1 + 2/w.Shape)
	return g2/(g1*g1) - 1
}

// NewSource implements Arrival.
func (w *Weibull) NewSource(rate float64, _ int) Source {
	return weibullSource{scale: 1 / (rate * math.Gamma(1+1/w.Shape)), inv: 1 / w.Shape}
}

type weibullSource struct{ scale, inv float64 }

func (s weibullSource) Next(st *rng.Stream) float64 {
	// -ln U ~ Exp(1); W = scale·E^{1/k}.
	return s.scale * math.Pow(-math.Log(st.Float64Open()), s.inv)
}

func (weibullSource) stateless() {}

// Trace replays a recorded arrival trace: the gap sequence between the
// supplied timestamps, rescaled so its mean gap matches each source's
// configured rate (burstiness shape is preserved, offered load stays
// comparable across processes). Replay is RNG-free and sources are
// staggered deterministically by node id — the determinism contract of
// DESIGN.md §6: a trace run is a pure function of (trace, configuration),
// independent of seed and parallelism.
type Trace struct {
	gaps    []float64
	meanGap float64
	scv     float64
}

// NewTrace builds a trace-replay process from non-decreasing absolute
// timestamps (seconds; at least two, spanning a positive interval).
func NewTrace(timestamps []float64) (*Trace, error) {
	if len(timestamps) < 2 {
		return nil, fmt.Errorf("workload: trace needs at least 2 timestamps, got %d", len(timestamps))
	}
	gaps := make([]float64, len(timestamps)-1)
	sum := 0.0
	for i := 1; i < len(timestamps); i++ {
		g := timestamps[i] - timestamps[i-1]
		if g < 0 || math.IsNaN(g) || math.IsInf(g, 0) {
			return nil, fmt.Errorf("workload: trace timestamps must be finite and non-decreasing (index %d)", i)
		}
		gaps[i-1] = g
		sum += g
	}
	if sum <= 0 {
		return nil, fmt.Errorf("workload: trace spans zero time")
	}
	t := &Trace{gaps: gaps, meanGap: sum / float64(len(gaps))}
	varSum := 0.0
	for _, g := range gaps {
		d := g - t.meanGap
		varSum += d * d
	}
	t.scv = varSum / float64(len(gaps)) / (t.meanGap * t.meanGap)
	return t, nil
}

// Name implements Arrival.
func (t *Trace) Name() string { return fmt.Sprintf("trace(n=%d)", len(t.gaps)) }

// SCV implements Arrival: the empirical SCV of the replayed gaps.
func (t *Trace) SCV() float64 { return t.scv }

// Len returns the number of replayed gaps.
func (t *Trace) Len() int { return len(t.gaps) }

// NewSource implements Arrival: source src starts src positions into the
// gap cycle, so distinct nodes replay the same shape out of phase rather
// than firing in lockstep.
func (t *Trace) NewSource(rate float64, src int) Source {
	return &traceSource{
		gaps:  t.gaps,
		scale: 1 / (rate * t.meanGap),
		pos:   src % len(t.gaps),
	}
}

type traceSource struct {
	gaps  []float64
	scale float64
	pos   int
}

func (s *traceSource) Next(*rng.Stream) float64 {
	g := s.gaps[s.pos] * s.scale
	s.pos++
	if s.pos == len(s.gaps) {
		s.pos = 0
	}
	return g
}

// ReadTrace parses a trace file: one arrival timestamp (seconds) per line,
// or the first comma-separated column of each line. Blank lines and lines
// starting with '#' are skipped; timestamps are sorted, so traces exported
// unordered still load.
func ReadTrace(r io.Reader) ([]float64, error) {
	sc := bufio.NewScanner(r)
	var ts []float64
	line := 0
	for sc.Scan() {
		line++
		s := strings.TrimSpace(sc.Text())
		if s == "" || strings.HasPrefix(s, "#") {
			continue
		}
		if i := strings.IndexByte(s, ','); i >= 0 {
			s = strings.TrimSpace(s[:i])
		}
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return nil, fmt.Errorf("workload: trace line %d: bad timestamp %q", line, s)
		}
		ts = append(ts, v)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("workload: reading trace: %w", err)
	}
	sort.Float64s(ts)
	return ts, nil
}

// Generator bundles the two workload axes — arrival process × destination
// pattern — into the one traffic description both simulators
// (internal/sim and internal/netsim) consume. The zero value means "the
// paper's workload": Poisson arrivals and uniform destinations.
type Generator struct {
	// Arrival draws interarrival gaps; nil means Poisson (assumption 2).
	Arrival Arrival
	// Pattern picks destinations; nil means Uniform (assumption 3).
	Pattern Pattern
}

// Normalized returns the generator with nil axes replaced by the paper's
// defaults.
func (g Generator) Normalized() Generator {
	if g.Arrival == nil {
		g.Arrival = Poisson{}
	}
	if g.Pattern == nil {
		g.Pattern = Uniform{}
	}
	return g
}

// Sources instantiates one arrival source per traffic source, rates[i]
// being source i's mean rate (msg/s), into dst's storage (dst may be nil;
// its old entries are overwritten). Both simulators call this once per
// replication, after Normalized, reusing the previous replication's slice.
// Consecutive sources of equal rate share one stateless source value.
func (g Generator) Sources(dst []Source, rates []float64) []Source {
	dst = dst[:0]
	for i, r := range rates {
		if i > 0 && r == rates[i-1] {
			if _, ok := dst[i-1].(statelessSource); ok {
				dst = append(dst, dst[i-1])
				continue
			}
		}
		dst = append(dst, g.Arrival.NewSource(r, i))
	}
	return dst
}
