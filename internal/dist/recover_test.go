package dist

import (
	"context"
	"errors"
	"testing"

	"hmscs/internal/par"
	"hmscs/internal/run"
	"hmscs/internal/sim"
)

// TestLocalSlotRecoversPanic pins that a unit panicking on one of the
// executor's own goroutines comes back as the unit's error: a nil
// configuration makes the engine panic.
func TestLocalSlotRecoversPanic(t *testing.T) {
	res, err := runEngine(context.Background(), &run.UnitStage{}, 0, 0, nil, sim.DefaultOptions())
	var pe *par.PanicError
	if res != nil || !errors.As(err, &pe) {
		t.Fatalf("runEngine(nil) = %v, %v; want a *par.PanicError", res, err)
	}
}
