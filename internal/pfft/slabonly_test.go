package pfft_test

import (
	"strings"
	"testing"

	"repro/internal/exchange"
	"repro/internal/mpi"
	"repro/internal/pfft"
	"repro/internal/spectral"
)

// Handing the solver an engine on a Pc > 1 grid must fail at
// construction with the engine's slab-only message (see
// TestSlabOnPencilGridPanics for the engine side).
func TestSolverOnPencilGridPanics(t *testing.T) {
	err := mpi.TryRun(4, func(c *mpi.Comm) {
		row, col := c.CartGrid(2, 2)
		f := pfft.NewPencilReal(col, row, 16, 1, exchange.Both(exchange.Staged))
		defer f.Close()
		spectral.New(c, 16, spectral.WithTransform(f))
	})
	if err == nil || !strings.Contains(err.Error(), "the solver is slab-only") {
		t.Fatalf("spectral.New on a 2x2 grid: error = %v, want the slab-only panic", err)
	}
}
