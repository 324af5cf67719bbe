package cli

import (
	"fmt"
	"os"
	"path/filepath"

	"hmscs/internal/core"
	"hmscs/internal/plan"
	"hmscs/internal/run"
	"hmscs/internal/workload"
)

// readInputs reads the files -config, -trace and -space name into e's
// values: the configuration into the system section (the net section
// for netsim), the trace's timestamps into the workload section and the
// design space into the plan section. The CLI is the one layer that
// reads them, so the spec that runs, is hashed or is submitted names no
// file.
func (x *experimentFlags) readInputs(e *run.Experiment) error {
	if x.config != "" {
		cfg, err := core.LoadConfig(x.config)
		if err != nil {
			return err
		}
		if e.Kind == run.KindNetsim {
			e.Net.Config = cfg
		} else {
			e.System.Config = cfg
		}
	}
	if x.trace != "" {
		f, err := os.Open(x.trace)
		if err != nil {
			return err
		}
		defer f.Close()
		if e.Workload.Trace, err = workload.ReadTrace(f); err != nil {
			return err
		}
	}
	if x.space != "" {
		sp, err := plan.LoadSpace(x.space)
		if err != nil {
			return err
		}
		e.Plan.Space = sp
	}
	return nil
}

// outputFiles is the sink that writes the files -trace-out and
// -emit-configs name from the outcome, so run.Run writes nothing. It
// sits ahead of the report's sink: a file that cannot be written fails
// the run before the report renders.
type outputFiles struct {
	emitConfigs string
	// emitted lists the configurations written, in write order, for
	// the progress notes.
	emitted []emittedConfig
}

// emittedConfig is one deployable configuration the planner's run wrote.
type emittedConfig struct{ path, label string }

func (s *outputFiles) Event(run.Event) error { return nil }

func (s *outputFiles) Result(o *run.Outcome) error {
	switch {
	case o.Kind == run.KindSimulate && o.Spec.Simulate.TraceOut != "":
		f, err := os.Create(o.Spec.Simulate.TraceOut)
		if err != nil {
			return err
		}
		if err := o.Simulate.Trace.WriteCSV(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	case o.Kind == run.KindPlan && s.emitConfigs != "":
		return s.writeConfigs(o.Plan)
	}
	return nil
}

// writeConfigs writes each verified candidate's configuration, or the
// frontier head's for a screen-only run, as plan-candidate-<index>.json,
// runnable through -config.
func (s *outputFiles) writeConfigs(p *run.PlanOutcome) error {
	if err := os.MkdirAll(s.emitConfigs, 0o755); err != nil {
		return err
	}
	targets := p.Verified
	if len(targets) == 0 {
		for i := 0; i < len(p.Frontier) && i < 3; i++ {
			targets = append(targets, plan.VerifiedCandidate{ScreenResult: p.Frontier[i]})
		}
	}
	for _, v := range targets {
		path := filepath.Join(s.emitConfigs, fmt.Sprintf("plan-candidate-%d.json", v.Index))
		if err := core.SaveConfig(v.Cfg, path); err != nil {
			return err
		}
		s.emitted = append(s.emitted, emittedConfig{path, v.Label()})
	}
	return nil
}
