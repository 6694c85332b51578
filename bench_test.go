// Package repro's root benchmark harness regenerates every table and
// figure of the paper (reported via b.ReportMetric so `go test
// -bench=. -benchmem` prints the reproduced numbers) and benchmarks
// the real execution engines — FFTs, transposes, the in-process MPI
// runtime, and the synchronous vs asynchronous transform pipelines —
// at laptop scale.
package repro_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/cuda"
	"repro/internal/exchange"
	"repro/internal/fft"
	"repro/internal/hw"
	"repro/internal/mpi"
	"repro/internal/pfft"
	"repro/internal/simnet"
	"repro/internal/spectral"
	"repro/internal/transpose"
)

// --- Paper artifact benchmarks (model evaluation) ----------------------

// BenchmarkTable1MemoryModel regenerates Table 1 and reports the
// 18432³ row's memory occupancy and pencil count.
func BenchmarkTable1MemoryModel(b *testing.B) {
	m := hw.Summit()
	var rows []hw.Table1Row
	for i := 0; i < b.N; i++ {
		rows = m.Table1()
	}
	last := rows[len(rows)-1]
	b.ReportMetric(last.MemPerNode, "GiB/node@18432")
	b.ReportMetric(float64(last.Pencils), "pencils@18432")
}

// BenchmarkTable2Alltoall regenerates Table 2 and reports the
// configuration C bandwidth at 3072 nodes (paper: 17.6 GB/s).
func BenchmarkTable2Alltoall(b *testing.B) {
	net := simnet.SummitA2A()
	var rows []simnet.Table2Row
	for i := 0; i < b.N; i++ {
		rows = net.Table2()
	}
	b.ReportMetric(rows[len(rows)-1].BW/1e9, "GB/s@C3072")
	b.ReportMetric(rows[len(rows)-3].BW/1e9, "GB/s@A3072")
}

// BenchmarkTable3TimePerStep regenerates Table 3 and reports the
// headline cells: 18432³ cfg C time (paper: 14.24 s) and the 12288³
// speedup (paper: 4.7×).
func BenchmarkTable3TimePerStep(b *testing.B) {
	var rows []core.Table3Row
	for i := 0; i < b.N; i++ {
		rows = core.Table3()
	}
	b.ReportMetric(rows[3].C, "s/step@18432-C")
	b.ReportMetric(rows[2].SpeedupC, "speedup@12288")
	b.ReportMetric(rows[3].SpeedupC, "speedup@18432")
}

// BenchmarkTable4WeakScaling regenerates Table 4 and reports the
// 18432³ weak-scaling percentage (paper: 52.9%).
func BenchmarkTable4WeakScaling(b *testing.B) {
	var rows []core.Table4Row
	for i := 0; i < b.N; i++ {
		rows = core.Table4()
	}
	b.ReportMetric(rows[3].WeakScaling, "%WS@18432")
}

// BenchmarkFig7StridedCopy regenerates the Fig 7 sweep and reports the
// many-memcpy : memcpy2D slowdown at the paper's 8.8 KB chunk size.
func BenchmarkFig7StridedCopy(b *testing.B) {
	cost := cuda.SummitCopyCost()
	var pts []cuda.Fig7Point
	for i := 0; i < b.N; i++ {
		pts = cost.Fig7()
	}
	var ratio float64
	for _, p := range pts {
		if p.ChunkBytes >= 8.8e3 && ratio == 0 {
			ratio = p.ManyMemcpy / p.Memcpy2D
		}
	}
	b.ReportMetric(ratio, "slowdown@8.8KB")
}

// BenchmarkFig8ZeroCopy regenerates the Fig 8 sweep and reports the
// fraction of peak reached with 16 thread blocks (paper: "close to
// maximum").
func BenchmarkFig8ZeroCopy(b *testing.B) {
	cost := cuda.SummitCopyCost()
	var pts []cuda.Fig8Point
	for i := 0; i < b.N; i++ {
		pts = cost.Fig8()
	}
	var bw16, bwMax float64
	for _, p := range pts {
		if p.Blocks == 16 {
			bw16 = p.H2DBW
		}
		if p.H2DBW > bwMax {
			bwMax = p.H2DBW
		}
	}
	b.ReportMetric(bw16/bwMax*100, "%ofPeak@16blocks")
}

// BenchmarkFig9Sweep regenerates the Fig 9 curves and reports the gap
// between the DNS and the MPI-only lower bound at 3072 nodes.
func BenchmarkFig9Sweep(b *testing.B) {
	var series []core.Fig9Series
	for i := 0; i < b.N; i++ {
		series = core.Fig9()
	}
	dns := series[2].Times[3]
	mpiOnly := series[3].Times[3]
	b.ReportMetric(dns-mpiOnly, "nonMPI-s@3072")
}

// BenchmarkFig10Timelines builds the four Fig 10 timelines.
func BenchmarkFig10Timelines(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tls := core.Fig10(); len(tls) != 4 {
			b.Fatal("timeline count")
		}
	}
}

// BenchmarkStrongScaling reproduces the §5.3 strong-scaling run.
func BenchmarkStrongScaling(b *testing.B) {
	var pct float64
	for i := 0; i < b.N; i++ {
		_, _, pct = core.StrongScaling18432()
	}
	b.ReportMetric(pct, "%strong")
}

// --- Real-execution benchmarks -----------------------------------------

func benchFFT(b *testing.B, n int) {
	p := fft.NewPlan(n)
	x := make([]complex128, n)
	rng := rand.New(rand.NewSource(1))
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	y := make([]complex128, n)
	b.SetBytes(int64(16 * n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Forward(y, x)
	}
}

func BenchmarkFFT1D(b *testing.B) {
	for _, n := range []int{64, 256, 1024, 4096, 1000, 729} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) { benchFFT(b, n) })
	}
}

func BenchmarkRealFFT1D(b *testing.B) {
	n := 1024
	p := fft.NewRealBatch(n, 1, 1, n, 1, n/2+1)
	x := make([]float64, n)
	rng := rand.New(rand.NewSource(2))
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	y := make([]complex128, n/2+1)
	b.SetBytes(int64(8 * n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Forward(y, x)
	}
}

func BenchmarkPackYZ(b *testing.B) {
	nxh, ny, mz, p := 33, 64, 16, 4
	src := make([]complex128, mz*ny*nxh)
	dst := make([]complex128, mz*ny*nxh)
	b.SetBytes(int64(16 * len(src)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		transpose.PackYZ(dst, src, nxh, ny, mz, p)
	}
}

func BenchmarkAlltoallInProcess(b *testing.B) {
	for _, p := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("p%d", p), func(b *testing.B) {
			bs := 1 << 12
			b.SetBytes(int64(16 * p * bs))
			mpi.Run(p, func(c *mpi.Comm) {
				send := make([]complex128, p*bs)
				recv := make([]complex128, p*bs)
				c.Barrier()
				if c.Rank() == 0 {
					b.ResetTimer()
				}
				for i := 0; i < b.N; i++ {
					mpi.Alltoall(c, send, recv)
				}
			})
		})
	}
}

func benchTransform(b *testing.B, makeTr func(c *mpi.Comm) spectral.Transform, n, ranks int) {
	mpi.Run(ranks, func(c *mpi.Comm) {
		tr := makeTr(c)
		if closer, ok := tr.(interface{ Close() }); ok {
			defer closer.Close()
		}
		rng := rand.New(rand.NewSource(int64(c.Rank())))
		phys := make([]float64, tr.PhysicalLen())
		for i := range phys {
			phys[i] = rng.NormFloat64()
		}
		four := make([]complex128, tr.FourierLen())
		c.Barrier()
		if c.Rank() == 0 {
			b.ResetTimer()
		}
		for i := 0; i < b.N; i++ {
			tr.PhysicalToFourier(four, phys)
			tr.FourierToPhysical(phys, four)
		}
	})
}

// BenchmarkDistributed3DFFT compares the synchronous reference against
// the asynchronous pipeline in both granularities — the real-execution
// analogue of Table 3's configuration comparison.
func BenchmarkDistributed3DFFT(b *testing.B) {
	const n, ranks = 32, 2
	b.Run("sync", func(b *testing.B) {
		benchTransform(b, func(c *mpi.Comm) spectral.Transform {
			return pfft.NewSlabRealStrategy(c, n, 1, exchange.Auto)
		}, n, ranks)
	})
	b.Run("asyncPencil", func(b *testing.B) {
		benchTransform(b, func(c *mpi.Comm) spectral.Transform {
			return pfft.NewAsyncSlabReal(c, n, pfft.Options{NP: 4, Granularity: pfft.PerPencil})
		}, n, ranks)
	})
	b.Run("asyncSlab", func(b *testing.B) {
		benchTransform(b, func(c *mpi.Comm) spectral.Transform {
			return pfft.NewAsyncSlabReal(c, n, pfft.Options{NP: 4, Granularity: pfft.PerSlab})
		}, n, ranks)
	})
}

// BenchmarkRK2Step times one full Navier–Stokes RK2 step (18 3D
// transforms) at laptop scale.
func BenchmarkRK2Step(b *testing.B) {
	const n, ranks = 32, 2
	mpi.Run(ranks, func(c *mpi.Comm) {
		s := spectral.New(c, n, spectral.WithNu(0.01), spectral.WithScheme(spectral.RK2), spectral.WithDealias(spectral.Dealias23))
		s.SetRandomIsotropic(3, 0.5, 1)
		c.Barrier()
		if c.Rank() == 0 {
			b.ResetTimer()
		}
		for i := 0; i < b.N; i++ {
			s.Step(1e-4)
		}
	})
}

// BenchmarkStridedCopyReal measures the actual strided-copy kernel at
// two granularities — the real-hardware analogue of Fig 7's effect.
func BenchmarkStridedCopyReal(b *testing.B) {
	total := 1 << 22 // elements
	src := make([]float64, total)
	dst := make([]float64, total)
	for _, chunk := range []int{64, 4096} {
		b.Run(fmt.Sprintf("chunk%d", chunk*8), func(b *testing.B) {
			rows := total / (2 * chunk)
			b.SetBytes(int64(8 * rows * chunk))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				transpose.CopyStrided(dst, 2*chunk, src, 2*chunk, chunk, rows)
			}
		})
	}
}

// --- Ablation benchmarks (design choices DESIGN.md calls out) ----------

// BenchmarkAblateDecomposition quantifies the §3.1 choice of a 1D slab
// decomposition over a 2D pencil layout for the GPU code.
func BenchmarkAblateDecomposition(b *testing.B) {
	var rows []core.DecompositionAblation
	for i := 0; i < b.N; i++ {
		rows = core.AblateDecomposition()
	}
	b.ReportMetric(rows[len(rows)-1].SlabWinPct, "%slabWin@18432")
}

// BenchmarkAblateContention quantifies the §5.2 host-memory contention
// penalty on overlapped exchanges.
func BenchmarkAblateContention(b *testing.B) {
	var with, without float64
	for i := 0; i < b.N; i++ {
		with, without = core.AblateContention(12288, 1024)
	}
	b.ReportMetric((with-without)/with*100, "%penalty")
}

// BenchmarkAblatePencilCount sweeps the batching granularity of §3.5.
func BenchmarkAblatePencilCount(b *testing.B) {
	var times []float64
	for i := 0; i < b.N; i++ {
		times = core.AblatePencilCount(18432, 3072, []int{4, 16})
	}
	b.ReportMetric((times[1]/times[0]-1)*100, "%np16-over-np4")
}

// BenchmarkBestConfigAutotune times the per-scale configuration search.
func BenchmarkBestConfigAutotune(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tpn, _, _ := core.BestConfig(18432, 3072); tpn != 2 {
			b.Fatal("unexpected best config")
		}
	}
}

// BenchmarkRK2StepScalar times the velocity+scalar step (the paper's
// turbulent-mixing companion workload).
func BenchmarkRK2StepScalar(b *testing.B) {
	const n, ranks = 32, 2
	mpi.Run(ranks, func(c *mpi.Comm) {
		s := spectral.New(c, n, spectral.WithNu(0.01), spectral.WithScheme(spectral.RK2), spectral.WithDealias(spectral.Dealias23),
			spectral.WithScalars(1))
		s.SetRandomIsotropic(3, 0.5, 1)
		s.SetFieldBlob(3, 3, 0.5, 2)
		c.Barrier()
		if c.Rank() == 0 {
			b.ResetTimer()
		}
		for i := 0; i < b.N; i++ {
			s.Step(1e-4)
		}
	})
}

// BenchmarkCheckpointWrite measures checkpoint serialization.
func BenchmarkCheckpointWrite(b *testing.B) {
	mpi.Run(1, func(c *mpi.Comm) {
		s := spectral.New(c, 32, spectral.WithNu(0.01))
		s.SetRandomIsotropic(3, 0.5, 1)
		var buf bytes.Buffer
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf.Reset()
			if err := s.WriteCheckpointTo(&buf); err != nil {
				b.Fatal(err)
			}
		}
		b.SetBytes(int64(buf.Len()))
	})
}

// BenchmarkThreadedTransform measures the hybrid MPI+OpenMP-style
// transform at several team sizes (on multi-core hosts larger teams
// speed the plane loops; semantics are identical regardless).
func BenchmarkThreadedTransform(b *testing.B) {
	const n, ranks = 32, 2
	for _, threads := range []int{1, 4} {
		b.Run(fmt.Sprintf("threads%d", threads), func(b *testing.B) {
			benchTransform(b, func(c *mpi.Comm) spectral.Transform {
				return pfft.NewSlabRealStrategy(c, n, threads, exchange.Auto)
			}, n, ranks)
		})
	}
}

// BenchmarkSingleCommTransform compares wire precisions through the
// asynchronous engine (single precision halves all-to-all bytes).
func BenchmarkSingleCommTransform(b *testing.B) {
	const n, ranks = 32, 2
	for _, single := range []bool{false, true} {
		b.Run(fmt.Sprintf("single=%v", single), func(b *testing.B) {
			benchTransform(b, func(c *mpi.Comm) spectral.Transform {
				return pfft.NewAsyncSlabReal(c, n, pfft.Options{
					NP: 4, Granularity: pfft.PerSlab, SingleComm: single,
				})
			}, n, ranks)
		})
	}
}

// BenchmarkParticleStep measures Lagrangian tracking per step.
func BenchmarkParticleStep(b *testing.B) {
	mpi.Run(2, func(c *mpi.Comm) {
		s := spectral.New(c, 32, spectral.WithNu(0.01))
		s.SetRandomIsotropic(3, 0.5, 1)
		parts := s.NewParticles(1024, 7)
		c.Barrier()
		if c.Rank() == 0 {
			b.ResetTimer()
		}
		for i := 0; i < b.N; i++ {
			s.StepParticles(parts, 1e-4)
		}
	})
}
