// Package scenario defines deterministic timelines of model-mutation
// events — node/switch failures and repairs, clusters joining or leaving
// mid-run, and time-varying arrival-rate profiles — that both simulation
// engines (internal/sim and internal/netsim) apply at event-loop
// granularity. A scenario is part of the experiment spec (the `scenario`
// section of run.Experiment), so the CLI, the JSONL sinks and the
// experiment server's spec-hash cache all see the timeline as data:
// two experiments with different timelines hash differently and never
// share a cache entry.
//
// The package is deliberately engine-agnostic: Spec is the serialized
// form, and CompileSim/CompileNet resolve its symbolic targets
// ("cluster:largest", "spine:2") against a concrete system description
// into flat element lists the engines consume. All validation errors are
// pointed — they name the offending event, its time, and the rule it
// broke — because timelines are written by hand in JSON.
//
// Determinism contract: a compiled scenario is immutable and pure. Event
// application mutates only engine-owned state, pending scenario events
// ride the event heap, and rate profiles are pure functions of (absolute
// time, drawn gap) that add no RNG draws. Dynamic runs are therefore
// bit-identical at every parallelism level, like everything else in this
// repository.
package scenario

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Actions of a timeline event.
const (
	ActionFail   = "fail"
	ActionRepair = "repair"
)

// Policy says what a failure does to the jobs already at (or in flight
// toward) the failed element.
type Policy uint8

const (
	// PolicyNone is the zero value: the compiler substitutes PolicyDrop
	// for targets that queue jobs, and node targets take no policy at all.
	PolicyNone Policy = iota
	// PolicyDrop discards the jobs at the failed element; their sources
	// are released immediately (closed-loop sources re-arm, so a drop is
	// lost work, not a lost source).
	PolicyDrop
	// PolicyRequeue keeps the jobs queued at the failed element; they
	// resume, with a fresh service draw, when the element is repaired.
	PolicyRequeue
	// PolicyReroute re-submits the jobs over the surviving alternate path.
	// Only intra-cluster networks (icn1:<c>) have one — local traffic can
	// detour through the cluster's ECN1 and the second stage — so reroute
	// is rejected everywhere else.
	PolicyReroute
)

// String returns the spec spelling of the policy.
func (p Policy) String() string {
	switch p {
	case PolicyDrop:
		return "drop"
	case PolicyRequeue:
		return "requeue"
	case PolicyReroute:
		return "reroute"
	}
	return ""
}

func parsePolicy(s string) (Policy, error) {
	switch s {
	case "":
		return PolicyNone, nil
	case "drop":
		return PolicyDrop, nil
	case "requeue":
		return PolicyRequeue, nil
	case "reroute":
		return PolicyReroute, nil
	}
	return PolicyNone, fmt.Errorf("unknown policy %q (want drop, requeue or reroute)", s)
}

// Spec is the serialized scenario section of an experiment: a bounded
// horizon, an optional analysis slicing, an optional latency SLO, the
// elements absent at time zero, the event timeline, and an optional rate
// profile. The zero value is not runnable; Validate rejects it.
type Spec struct {
	// HorizonS is the simulated duration in seconds; a scenario run always
	// covers exactly [0, HorizonS] regardless of message counts.
	HorizonS float64 `json:"horizon_s"`
	// SliceS is the width of the transient-analysis time slices in
	// seconds; 0 defaults to HorizonS/20.
	SliceS float64 `json:"slice_s,omitempty"`
	// SLOLatencyMS, when positive, is the latency objective (milliseconds)
	// behind the recovery metric: time-to-return-within-SLO after the
	// first injected fault.
	SLOLatencyMS float64 `json:"slo_latency_ms,omitempty"`
	// InitialDown lists targets absent at time zero (cluster churn: a
	// cluster listed here joins the system when a repair event names it).
	InitialDown []string `json:"initial_down,omitempty"`
	// Events is the mutation timeline, sorted by time (Normalize sorts).
	// Event times must be pairwise distinct: simultaneous events on
	// different elements would take effect in JSON list order, which the
	// timeline does not define, so Validate rejects them (stagger one by
	// any positive offset).
	Events []Event `json:"events,omitempty"`
	// Profile optionally modulates every source's arrival rate over time.
	Profile *ProfileSpec `json:"profile,omitempty"`
}

// Event is one timeline entry.
type Event struct {
	// TS is the event time in seconds, in (0, HorizonS].
	TS float64 `json:"t_s"`
	// Action is "fail" or "repair".
	Action string `json:"action"`
	// Target names the element: node:<i>, cluster:<i>, cluster:largest,
	// icn1:<c>, ecn1:<c>, icn2 (sim); node:<i>, switch:<i>, spine:<i>
	// (netsim).
	Target string `json:"target"`
	// Policy applies to fail events on queueing targets: drop, requeue or
	// reroute (empty defaults to drop). Node failures in the cluster
	// simulator take no policy — a stopped processor just stops
	// generating.
	Policy string `json:"policy,omitempty"`
}

// ProfileSpec describes a time-varying arrival-rate multiplier. All kinds
// compile to a piecewise-constant multiplier over absolute sim time;
// sources stay untouched — the engines stretch each drawn gap through the
// profile (see Profile.Stretch), adding no RNG draws.
type ProfileSpec struct {
	// Kind is "piecewise", "diurnal" or "flash".
	Kind string `json:"kind"`
	// TimesS/Factors define a piecewise profile: Factors[i] applies on
	// [TimesS[i], TimesS[i+1]); TimesS[0] must be 0 and the last factor
	// extends to the horizon. All factors must be positive.
	TimesS  []float64 `json:"times_s,omitempty"`
	Factors []float64 `json:"factors,omitempty"`
	// PeriodS makes piecewise profiles cyclic (0 = aperiodic) and is the
	// required period of diurnal profiles.
	PeriodS float64 `json:"period_s,omitempty"`
	// Amplitude is the diurnal swing in [0, 1): multiplier
	// 1 + Amplitude·sin(2πt/PeriodS), discretised.
	Amplitude float64 `json:"amplitude,omitempty"`
	// PeakFactor, StartS, RampS, HoldS define a flash crowd: baseline 1,
	// a linear ramp of RampS seconds starting at StartS up to PeakFactor,
	// held for HoldS, and ramped back down over RampS.
	PeakFactor float64 `json:"peak_factor,omitempty"`
	StartS     float64 `json:"start_s,omitempty"`
	RampS      float64 `json:"ramp_s,omitempty"`
	HoldS      float64 `json:"hold_s,omitempty"`
}

// Clone returns a deep copy.
func (s *Spec) Clone() *Spec {
	if s == nil {
		return nil
	}
	c := *s
	c.InitialDown = append([]string(nil), s.InitialDown...)
	c.Events = append([]Event(nil), s.Events...)
	if s.Profile != nil {
		p := *s.Profile
		p.TimesS = append([]float64(nil), s.Profile.TimesS...)
		p.Factors = append([]float64(nil), s.Profile.Factors...)
		c.Profile = &p
	}
	return &c
}

// Normalize fills defaults and sorts the timeline by event time (stable,
// so same-time events keep their spec order). Idempotent.
func (s *Spec) Normalize() {
	if s == nil {
		return
	}
	if s.SliceS == 0 && s.HorizonS > 0 {
		s.SliceS = s.HorizonS / 20
	}
	sort.SliceStable(s.Events, func(i, j int) bool { return s.Events[i].TS < s.Events[j].TS })
}

// FaultAt returns the time of the first fail event, or NaN when the
// timeline injects no failure (the recovery metric is undefined then).
func (s *Spec) FaultAt() float64 {
	for _, e := range s.Events {
		if e.Action == ActionFail {
			return e.TS
		}
	}
	return math.NaN()
}

// SLO returns the latency objective in seconds (NaN when unset).
func (s *Spec) SLO() float64 {
	if s.SLOLatencyMS <= 0 {
		return math.NaN()
	}
	return s.SLOLatencyMS / 1000
}

// Validate checks everything that does not require a concrete system:
// horizon and slice sanity, event times inside (0, horizon], known
// actions and policies, parsable targets, a consistent fail/repair
// interval structure per target string, and a compilable profile.
// CompileSim/CompileNet re-check intervals per resolved element (aliases
// like cluster:largest and icn1:0 can collide only there) and enforce
// the engine-specific target and policy rules.
func (s *Spec) Validate() error {
	if !(s.HorizonS > 0) || math.IsInf(s.HorizonS, 0) {
		return fmt.Errorf("scenario: horizon_s must be positive and finite, got %g", s.HorizonS)
	}
	if s.SliceS < 0 || math.IsInf(s.SliceS, 0) || math.IsNaN(s.SliceS) {
		return fmt.Errorf("scenario: slice_s must be non-negative and finite, got %g", s.SliceS)
	}
	if s.SLOLatencyMS < 0 || math.IsInf(s.SLOLatencyMS, 0) || math.IsNaN(s.SLOLatencyMS) {
		return fmt.Errorf("scenario: slo_latency_ms must be non-negative and finite, got %g", s.SLOLatencyMS)
	}
	down := make(map[string]bool)
	for i, t := range s.InitialDown {
		tg, err := parseTarget(t)
		if err != nil {
			return fmt.Errorf("scenario: initial_down[%d]: %v", i, err)
		}
		key := tg.String()
		if down[key] {
			return fmt.Errorf("scenario: initial_down[%d]: %s listed twice", i, key)
		}
		down[key] = true
	}
	// The interval machine walks events in time order; Normalize sorts,
	// but validate against a sorted copy so an unnormalized spec still
	// gets interval errors (and unsorted input is caught elsewhere as a
	// round-trip difference, not silently accepted).
	idx := make([]int, len(s.Events))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return s.Events[idx[a]].TS < s.Events[idx[b]].TS })
	lastFail := make(map[string]float64)
	lastT, lastI := math.NaN(), -1
	for _, i := range idx {
		e := s.Events[i]
		if math.IsNaN(e.TS) || !(e.TS > 0) || e.TS > s.HorizonS {
			return fmt.Errorf("scenario: events[%d] (%s %s): t_s=%g is outside the horizon (0, %g]",
				i, e.Action, e.Target, e.TS, s.HorizonS)
		}
		if e.TS == lastT {
			return fmt.Errorf("scenario: events[%d] and events[%d] share t_s=%g; simultaneous events would take effect in JSON list order, which the timeline does not define — stagger one by any positive offset",
				lastI, i, e.TS)
		}
		lastT, lastI = e.TS, i
		if e.Action != ActionFail && e.Action != ActionRepair {
			return fmt.Errorf("scenario: events[%d]: unknown action %q (want fail or repair)", i, e.Action)
		}
		pol, err := parsePolicy(e.Policy)
		if err != nil {
			return fmt.Errorf("scenario: events[%d] (%s %s): %v", i, e.Action, e.Target, err)
		}
		if e.Action == ActionRepair && pol != PolicyNone {
			return fmt.Errorf("scenario: events[%d]: repair of %s takes no policy, got %q", i, e.Target, e.Policy)
		}
		tg, err := parseTarget(e.Target)
		if err != nil {
			return fmt.Errorf("scenario: events[%d]: %v", i, err)
		}
		if pol == PolicyReroute && tg.kind != tICN1 {
			return fmt.Errorf("scenario: events[%d]: policy reroute needs an alternate path, which only icn1:<c> targets have, not %s", i, tg)
		}
		key := tg.String()
		if e.Action == ActionFail {
			if down[key] {
				if t, ok := lastFail[key]; ok {
					return fmt.Errorf("scenario: events[%d]: fail of %s at t=%gs overlaps the fail at t=%gs (no repair in between)",
						i, key, e.TS, t)
				}
				return fmt.Errorf("scenario: events[%d]: fail of %s at t=%gs but it is already down from initial_down",
					i, key, e.TS)
			}
			down[key] = true
			lastFail[key] = e.TS
		} else {
			if !down[key] {
				return fmt.Errorf("scenario: events[%d]: repair of %s at t=%gs but it is not failed then", i, key, e.TS)
			}
			delete(down, key)
			delete(lastFail, key)
		}
	}
	if s.Profile != nil {
		if _, err := s.Profile.Compile(); err != nil {
			return err
		}
	}
	return nil
}

// Target kinds. node is shared by both engines; cluster/icn are cluster
// simulator targets, switch/spine belong to the switch-level simulator.
type targetKind uint8

const (
	tNode targetKind = iota
	tCluster
	tClusterLargest
	tICN1
	tECN1
	tICN2
	tSwitch
	tSpine
)

type target struct {
	kind targetKind
	idx  int
}

// String returns the canonical spelling (the map key of the interval
// machines and the text of error messages).
func (t target) String() string {
	switch t.kind {
	case tNode:
		return "node:" + strconv.Itoa(t.idx)
	case tCluster:
		return "cluster:" + strconv.Itoa(t.idx)
	case tClusterLargest:
		return "cluster:largest"
	case tICN1:
		return "icn1:" + strconv.Itoa(t.idx)
	case tECN1:
		return "ecn1:" + strconv.Itoa(t.idx)
	case tICN2:
		return "icn2"
	case tSwitch:
		return "switch:" + strconv.Itoa(t.idx)
	case tSpine:
		return "spine:" + strconv.Itoa(t.idx)
	}
	return "?"
}

func parseTarget(s string) (target, error) {
	if s == "icn2" {
		return target{kind: tICN2}, nil
	}
	if s == "cluster:largest" {
		return target{kind: tClusterLargest, idx: -1}, nil
	}
	kind, num, ok := strings.Cut(s, ":")
	kinds := map[string]targetKind{
		"node": tNode, "cluster": tCluster, "icn1": tICN1, "ecn1": tECN1,
		"switch": tSwitch, "spine": tSpine,
	}
	k, known := kinds[kind]
	if !ok || !known {
		return target{}, fmt.Errorf("unknown target %q (want node:<i>, cluster:<i|largest>, icn1:<c>, ecn1:<c>, icn2, switch:<i> or spine:<i>)", s)
	}
	i, err := strconv.Atoi(num)
	if err != nil || i < 0 {
		return target{}, fmt.Errorf("target %q: index %q must be a non-negative integer", s, num)
	}
	return target{kind: k, idx: i}, nil
}
