// Package suppress exercises the //psdns:allow directive's edge
// cases: a directive above a multi-line statement covers findings on
// its continuation lines, and a directive naming an unknown analyzer
// is itself reported.
package suppress

// The allocation finding lands on the continuation line holding the
// make; the directive above the statement's first line must cover it.
//
//psdns:hotpath
func multilineStatement(n int) []float64 {
	//psdns:allow hotalloc fixture exercises statement-start suppression
	return keep(n,
		make([]float64, n))
}

// A typo'd analyzer name suppresses nothing and is reported.
//
//psdns:hotpath
func wrongAnalyzerName(n int) []float64 {
	//psdns:allow hotallocc typo should be caught // want `psdns:allow names unknown analyzer "hotallocc"`
	return make([]float64, n) // want `call to make allocates`
}

// A known-analyzer directive with no reason is reported and
// suppresses nothing.
//
//psdns:hotpath
func missingReason(n int) []float64 {
	//psdns:allow hotalloc // want `psdns:allow hotalloc requires a non-empty reason`
	return make([]float64, n) // want `call to make allocates`
}

// keep returns buf; it allocates nothing, so the hot functions' one
// level of callee propagation finds nothing in it.
func keep(n int, buf []float64) []float64 { return buf[:n] }
