package spectral_test

import (
	"strings"
	"testing"

	"repro/internal/exchange"
	"repro/internal/mpi"
	"repro/internal/pfft"
	"repro/internal/spectral"
)

// The solver's state is laid out on the slab: a transform on a Pr×Pc
// grid with Pc > 1 has no slab geometry, so a solver built on one
// panics naming the grid instead of stepping a layout it cannot read.
func TestSolverOnPencilGridPanics(t *testing.T) {
	const n = 16
	err := mpi.TryRun(4, func(c *mpi.Comm) {
		row, col := c.CartGrid(2, 2)
		tr := pfft.NewPencilReal(col, row, n, 1, exchange.Both(exchange.Staged))
		defer tr.Close()
		spectral.New(c, n, spectral.WithTransform(tr)).Close()
	})
	if err == nil || !strings.Contains(err.Error(), "2x2 pencil grid, not a slab") {
		t.Fatalf("solver on a 2x2 grid: error = %v, want the Slab() panic", err)
	}
}
