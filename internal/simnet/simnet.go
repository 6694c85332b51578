// Package simnet models the effective bandwidth of MPI all-to-all
// exchanges on Summit's dual-rail EDR InfiniBand fabric. The model is
// the standard latency-saturation form
//
//	BW_node(msg, nodes) = BWsat(nodes) · msg/(msg + m½(nodes))
//
// with an eager-protocol floor for messages under the eager limit (the
// §4.1 anomaly where 6 tasks/node at 3072 nodes beats 2 tasks/node).
// BWsat and m½ are calibrated to the nine measurements of the paper's
// Table 2 and interpolated log-log in node count between them; the
// paper's Eq 3 converts between per-node bandwidth and exchange time.
package simnet

import (
	"fmt"
	"math"
	"sort"
)

const (
	kib = 1024.0
	mib = 1024.0 * 1024.0
	gb  = 1e9
)

type calibPoint struct {
	nodes float64
	sat   float64 // saturated per-node bandwidth (B/s)
	mHalf float64 // message size of half-saturation (B)
}

// A2AModel predicts all-to-all performance.
type A2AModel struct {
	points     []calibPoint
	eagerLimit float64 // bytes; P2P messages at or below this may use eager path
	eagerBW    float64 // per-node bandwidth floor on the eager path (B/s)
}

// SummitA2A returns the model calibrated to Table 2 of the paper.
func SummitA2A() *A2AModel {
	return &A2AModel{
		points: []calibPoint{
			{16, 44.0 * gb, 2.5 * mib},
			{128, 40.3 * gb, 1.0 * mib},
			{1024, 26.0 * gb, 0.24 * mib},
			{3072, 20.0 * gb, 0.35 * mib},
		},
		eagerLimit: 160 * kib,
		eagerBW:    13.2 * gb,
	}
}

// NodeBandwidth returns the effective per-node all-to-all bandwidth
// (bytes/s, Eq 3 convention: counts both sends and receives) for the
// given P2P message size at the given node count.
func (m *A2AModel) NodeBandwidth(p2pBytes float64, nodes int) float64 {
	if p2pBytes <= 0 || nodes < 1 {
		panic(fmt.Sprintf("simnet: invalid message %g bytes on %d nodes", p2pBytes, nodes))
	}
	sat, mh := m.interp(float64(nodes))
	bw := sat * p2pBytes / (p2pBytes + mh)
	if p2pBytes <= m.eagerLimit {
		// Small messages ride the eager path with hardware tag
		// matching (the §4.1 anomaly, strongest at full scale where
		// adaptive routing and switch offload are best amortized).
		eager := m.eagerBW * math.Log(float64(nodes)) / math.Log(3072)
		if eager > bw {
			bw = eager
		}
	}
	return bw
}

// interp log-log interpolates (sat, m½) at the given node count,
// clamping outside the calibrated range.
func (m *A2AModel) interp(nodes float64) (sat, mh float64) {
	pts := m.points
	if nodes <= pts[0].nodes {
		return pts[0].sat, pts[0].mHalf
	}
	last := pts[len(pts)-1]
	if nodes >= last.nodes {
		return last.sat, last.mHalf
	}
	i := sort.Search(len(pts), func(i int) bool { return pts[i].nodes >= nodes }) - 1
	a, b := pts[i], pts[i+1]
	t := (math.Log(nodes) - math.Log(a.nodes)) / (math.Log(b.nodes) - math.Log(a.nodes))
	sat = math.Exp(math.Log(a.sat)*(1-t) + math.Log(b.sat)*t)
	mh = math.Exp(math.Log(a.mHalf)*(1-t) + math.Log(b.mHalf)*t)
	return sat, mh
}

// Time returns the wall time of one all-to-all in which every one of
// the P ranks exchanges a p2pBytes block with every rank (Eq 3
// inverted: time = 2·P2P·P·tpn/BW).
func (m *A2AModel) Time(p2pBytes float64, p, tpn, nodes int) float64 {
	bw := m.NodeBandwidth(p2pBytes, nodes)
	return 2 * p2pBytes * float64(p) * float64(tpn) / bw
}

// P2PSlab is the P2P message size when a whole slab of nv variables is
// exchanged in one call (configuration C): 4·nv·N·(N/P)² bytes.
func P2PSlab(n, p, nv int) float64 {
	np2 := float64(n) / float64(p)
	return 4 * float64(nv) * float64(n) * np2 * np2
}

// P2PPencil is the P2P message size when one of np pencils is
// exchanged per call (configurations A and B): 4·nv·(N/np)·(N/P)².
func P2PPencil(n, p, nv, np int) float64 {
	return P2PSlab(n, p, nv) / float64(np)
}

// Table2Row reproduces one measurement cell of the paper's Table 2.
type Table2Row struct {
	Nodes int
	Cfg   string  // "A", "B" or "C"
	P2P   float64 // bytes
	BW    float64 // bytes/s per node
}

// Table2 regenerates the paper's Table 2 grid: configurations
// A (6 tasks/node, 1 pencil/A2A), B (2 tasks/node, 1 pencil/A2A) and
// C (2 tasks/node, 1 slab/A2A) at the four standard scales, for nv=3
// variables. np is the pencil count per slab from Table 1.
func (m *A2AModel) Table2() []Table2Row {
	cases := []struct {
		nodes, n, np int
	}{
		{16, 3072, 3}, {128, 6144, 3}, {1024, 12288, 3}, {3072, 18432, 4},
	}
	var rows []Table2Row
	for _, c := range cases {
		for _, cfg := range []struct {
			name string
			tpn  int
			slab bool
		}{{"A", 6, false}, {"B", 2, false}, {"C", 2, true}} {
			p := cfg.tpn * c.nodes
			var p2p float64
			if cfg.slab {
				p2p = P2PSlab(c.n, p, 3)
			} else {
				p2p = P2PPencil(c.n, p, 3, c.np)
			}
			rows = append(rows, Table2Row{
				Nodes: c.nodes,
				Cfg:   cfg.name,
				P2P:   p2p,
				BW:    m.NodeBandwidth(p2p, c.nodes),
			})
		}
	}
	return rows
}

// ScaledSummitA2A returns the calibrated model with every bandwidth
// multiplied by f — the "what if the interconnect were f× faster"
// question of the paper's conclusions.
func ScaledSummitA2A(f float64) *A2AModel {
	m := SummitA2A()
	for i := range m.points {
		m.points[i].sat *= f
	}
	m.eagerBW *= f
	return m
}
