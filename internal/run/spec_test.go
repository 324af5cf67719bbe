package run

import (
	"context"
	"strings"
	"testing"
)

// TestValidateRejectsNegativeRunCounts pins the spec boundary: a
// negative run.messages, run.warmup, run.reps or run.shards fails
// Validate, Parse and Run alike, for every simulating kind and in
// precision mode too, while zero still means "the default".
func TestValidateRejectsNegativeRunCounts(t *testing.T) {
	fields := []struct {
		name string
		set  func(r *RunSpec, v int)
	}{
		{"messages", func(r *RunSpec, v int) { r.Messages = v }},
		{"warmup", func(r *RunSpec, v int) { r.Warmup = v }},
		{"reps", func(r *RunSpec, v int) { r.Reps = v }},
		{"shards", func(r *RunSpec, v int) { r.Shards = v }},
	}
	for _, kind := range []Kind{KindSimulate, KindNetsim, KindSweep, KindFigure} {
		for _, relWidth := range []float64{0, 0.2} {
			for _, f := range fields {
				e := NewExperiment(kind)
				e.Precision.RelWidth = relWidth
				f.set(e.Run, -5)
				err := e.Validate()
				if err == nil || !strings.Contains(err.Error(), "run."+f.name) {
					t.Errorf("%s rel_width=%g run.%s=-5: Validate error %v, want one naming run.%s", kind, relWidth, f.name, err, f.name)
				}
				data, merr := e.Marshal()
				if merr != nil {
					t.Fatal(merr)
				}
				if _, err := Parse(data); err == nil {
					t.Errorf("%s rel_width=%g: Parse accepted run.%s=-5", kind, relWidth, f.name)
				}
				if _, err := Run(context.Background(), e, Options{Parallelism: 1}); err == nil {
					t.Errorf("%s rel_width=%g: Run accepted run.%s=-5", kind, relWidth, f.name)
				}

				zero := NewExperiment(kind)
				zero.Precision.RelWidth = relWidth
				f.set(zero.Run, 0)
				if err := zero.Validate(); err != nil {
					t.Errorf("%s rel_width=%g: run.%s=0 rejected: %v", kind, relWidth, f.name, err)
				}
			}
		}
	}
}
