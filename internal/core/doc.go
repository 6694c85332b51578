// Package core is the paper's performance model: it replays the
// batched asynchronous GPU algorithm of Fig 4 — the schedule the
// one-column engine of internal/pfft runs for real — on the
// discrete-event simulator of internal/sched with Summit's calibrated
// rates (internal/hw, internal/simnet), to reproduce the paper's
// Tables 3–4 and Figs 9–10 (perfmodel.go, tables.go) and the design
// ablations DESIGN.md calls out: slab versus 2-D pencil decomposition,
// contention, pencil count and the automatic configuration choice
// (ablation.go). It holds no transform engine.
package core
