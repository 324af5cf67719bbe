// Package output implements steady-state simulation output analysis: the
// machinery that turns raw latency series into defensible point estimates
// and decides how much simulation is enough.
//
// Three pieces compose into the simulator's precision mode:
//
//   - MSER-5 warmup truncation (mser.go) replaces the fixed warm-up guess
//     with a data-driven deletion point per replication.
//   - Batch-means variance estimation with an autocorrelation-aware batch
//     size search (batch.go) gives honest within-run intervals for serially
//     correlated latency series.
//   - A sequential stopping rule (Stopper, below) extends a replication set
//     until the across-replication confidence interval on the mean hits a
//     relative-precision target, instead of running a fixed count and
//     hoping.
//
// Everything here is deterministic: outputs depend only on the input
// series and the replication order, never on wall-clock time or machine
// parallelism, which is what lets sim and sweep promise bit-identical
// precision-mode results at every -parallel value.
package output

import (
	"fmt"
	"math"

	"hmscs/internal/stats"
)

// Precision is a relative-precision target for a mean estimate: stop once
// the two-sided confidence half-width is at most RelWidth·|mean|.
type Precision struct {
	// RelWidth is the target half-width as a fraction of the mean,
	// e.g. 0.02 for ±2%. Required (> 0).
	RelWidth float64
	// Confidence is the interval's confidence level; 0 defaults to 0.95.
	Confidence float64
	// MinReps is the smallest replication count the rule may stop at;
	// 0 defaults to 4 (the t-interval needs a few degrees of freedom
	// before its width means anything).
	MinReps int
	// MaxReps caps the replication set; 0 defaults to 64. A run that hits
	// the cap reports Converged = false rather than looping forever on a
	// high-variance configuration.
	MaxReps int
}

// Normalized fills zero fields with defaults.
func (p Precision) Normalized() Precision {
	if p.Confidence == 0 {
		p.Confidence = 0.95
	}
	if p.MinReps == 0 {
		p.MinReps = 4
	}
	if p.MaxReps == 0 {
		p.MaxReps = 64
	}
	return p
}

// Validate reports whether the (normalized) target is usable.
func (p Precision) Validate() error {
	if !(p.RelWidth > 0) || p.RelWidth >= 1 {
		return fmt.Errorf("output: relative precision must be in (0, 1), got %g", p.RelWidth)
	}
	if p.Confidence <= 0 || p.Confidence >= 1 {
		return fmt.Errorf("output: confidence must be in (0, 1), got %g", p.Confidence)
	}
	if p.MinReps < 3 {
		return fmt.Errorf("output: need at least 3 minimum replications, got %d", p.MinReps)
	}
	if p.MaxReps < p.MinReps {
		return fmt.Errorf("output: max replications %d below minimum %d", p.MaxReps, p.MinReps)
	}
	return nil
}

// Estimate describes the statistical quality of a mean estimate produced
// under the stopping rule (or by a fixed replication count), threaded
// through sweep results and the report emitters so variance information
// survives all the way to the CSVs.
type Estimate struct {
	// Mean is the point estimate.
	Mean float64
	// Confidence is the level HalfWidth is computed at (e.g. 0.95).
	Confidence float64
	// HalfWidth is the two-sided confidence half-width on Mean.
	HalfWidth float64
	// Reps is the number of replications behind the estimate.
	Reps int
	// ESS is the summed autocorrelation-discounted effective sample size
	// across replications (0 when raw samples were not recorded).
	ESS float64
	// Converged reports the precision target was met; fixed-replication
	// estimates set it true vacuously.
	Converged bool
}

// RelHalfWidth returns HalfWidth as a fraction of |Mean| (Inf for a zero
// mean).
func (e Estimate) RelHalfWidth() float64 {
	if e.Mean == 0 {
		return math.Inf(1)
	}
	return e.HalfWidth / math.Abs(e.Mean)
}

// Stopper implements the sequential stopping rule over replication point
// estimates. Feed each replication's mean in replication order with Add;
// between rounds, Satisfied/Exhausted decide whether to stop and NextChunk
// sizes the next batch of replications. The decision sequence depends only
// on the added values and their order.
type Stopper struct {
	prec  Precision
	means stats.Welford
}

// NewStopper builds a stopper for a validated precision target.
func NewStopper(p Precision) *Stopper {
	return &Stopper{prec: p.Normalized()}
}

// Add records one replication's point estimate.
func (s *Stopper) Add(mean float64) { s.means.Add(mean) }

// N returns the number of replications added so far.
func (s *Stopper) N() int { return int(s.means.Count()) }

// Mean returns the across-replication grand mean.
func (s *Stopper) Mean() float64 { return s.means.Mean() }

// HalfWidth returns the confidence half-width at the target's level, or
// NaN with fewer than two replications.
func (s *Stopper) HalfWidth() float64 { return s.means.CI(s.prec.Confidence) }

// RelHalfWidth returns HalfWidth as a fraction of |Mean|.
func (s *Stopper) RelHalfWidth() float64 {
	m := math.Abs(s.Mean())
	if m == 0 {
		return math.Inf(1)
	}
	return s.HalfWidth() / m
}

// Satisfied reports that the precision target is met with at least MinReps
// replications.
func (s *Stopper) Satisfied() bool {
	if s.N() < s.prec.MinReps {
		return false
	}
	rel := s.RelHalfWidth()
	return !math.IsNaN(rel) && rel <= s.prec.RelWidth
}

// Exhausted reports that the replication cap has been reached.
func (s *Stopper) Exhausted() bool { return s.N() >= s.prec.MaxReps }

// NextChunk returns how many more replications to run before re-checking:
// MinReps when empty, and otherwise a projection of the shortfall from the
// current half-width (half-widths shrink like 1/sqrt(n)), clamped to at
// most double the current set and to the MaxReps cap. The result depends
// only on the values added so far, so schedules are deterministic.
func (s *Stopper) NextChunk() int {
	n := s.N()
	if n == 0 {
		return min(s.prec.MinReps, s.prec.MaxReps)
	}
	room := s.prec.MaxReps - n
	if room <= 0 {
		return 0
	}
	target := s.prec.RelWidth * math.Abs(s.Mean())
	half := s.HalfWidth()
	chunk := 1
	if target > 0 && !math.IsNaN(half) && half > target {
		ratio := half / target
		need := int(math.Ceil(float64(n)*ratio*ratio)) - n
		chunk = need
	}
	if chunk < 1 {
		chunk = 1
	}
	if chunk > n {
		chunk = n // grow at most geometrically per round
	}
	if chunk > room {
		chunk = room
	}
	return chunk
}
