package spectral

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"io"
	"math"
	"os"
	"strings"
	"testing"

	"repro/internal/mpi"
)

func TestCheckpointRoundTripInMemory(t *testing.T) {
	mpi.Run(2, func(c *mpi.Comm) {
		s := New(c, 16, WithNu(0.02), WithScheme(RK2), WithDealias(Dealias23))
		s.SetRandomIsotropic(3, 0.5, 1)
		for i := 0; i < 2; i++ {
			s.Step(0.004)
		}
		var buf bytes.Buffer
		if err := s.WriteCheckpointTo(&buf); err != nil {
			t.Fatalf("write: %v", err)
		}
		s2 := New(c, 16, WithNu(0.02), WithScheme(RK2), WithDealias(Dealias23))
		if err := s2.ReadCheckpointFrom(&buf); err != nil {
			t.Fatalf("read: %v", err)
		}
		if s2.StepCount() != s.StepCount() || s2.Time() != s.Time() {
			t.Errorf("metadata: step %d/%d time %g/%g", s2.StepCount(), s.StepCount(), s2.Time(), s.Time())
		}
		for cmp := 0; cmp < 3; cmp++ {
			for i := range s.Uh[cmp] {
				if s.Uh[cmp][i] != s2.Uh[cmp][i] {
					t.Fatalf("component %d element %d differs", cmp, i)
				}
			}
		}
	})
}

func TestCheckpointRestartContinuesIdentically(t *testing.T) {
	// Run A: 6 steps straight. Run B: 3 steps, checkpoint to disk,
	// restore into a fresh solver, 3 more. Same fields (bitwise).
	dir := t.TempDir()
	n := 16
	opts := []Option{WithNu(0.02), WithScheme(RK2), WithDealias(Dealias23)}
	var straight []complex128
	mpi.Run(2, func(c *mpi.Comm) {
		s := New(c, n, opts...)
		s.SetRandomIsotropic(3, 0.5, 11)
		for i := 0; i < 6; i++ {
			s.Step(0.004)
		}
		if c.Rank() == 0 {
			straight = append([]complex128(nil), s.Uh[0]...)
		}
	})
	var restarted []complex128
	mpi.Run(2, func(c *mpi.Comm) {
		s := New(c, n, opts...)
		s.SetRandomIsotropic(3, 0.5, 11)
		for i := 0; i < 3; i++ {
			s.Step(0.004)
		}
		if err := s.SaveCheckpoint(dir); err != nil {
			t.Errorf("save: %v", err)
		}
		s2 := New(c, n, opts...)
		if err := s2.LoadCheckpoint(dir); err != nil {
			t.Errorf("load: %v", err)
		}
		for i := 0; i < 3; i++ {
			s2.Step(0.004)
		}
		if s2.StepCount() != 6 {
			t.Errorf("step count %d", s2.StepCount())
		}
		if c.Rank() == 0 {
			restarted = append([]complex128(nil), s2.Uh[0]...)
		}
	})
	for i := range straight {
		if straight[i] != restarted[i] {
			t.Fatalf("restart diverged at element %d", i)
		}
	}
}

// A 3+2-field rotating-scalar state round-trips bitwise through the
// generic field serialisation, and the header peek describes it.
func TestCheckpointWithScalars(t *testing.T) {
	dir := t.TempDir()
	opts := []Option{WithNu(0.02), WithScheme(RK2), WithDealias(Dealias23),
		WithScalars(2, 1, 0.7), WithScalarGradient(2.5)}
	mpi.Run(2, func(c *mpi.Comm) {
		s := New(c, 8, opts...)
		s.SetRandomIsotropic(2, 0.4, 3)
		s.SetFieldBlob(3, 2, 0.3, 5)
		s.SetFieldBlob(4, 2.5, 0.2, 6)
		s.Step(0.004)
		if err := s.SaveCheckpoint(dir); err != nil {
			t.Fatalf("save: %v", err)
		}
		info, err := PeekCheckpoint(dir)
		if err != nil {
			t.Fatalf("peek: %v", err)
		}
		if want := (CheckpointInfo{N: 8, Ranks: 2, Nu: 0.02, System: "rotating-scalar", Fields: 5}); info != want {
			t.Errorf("peek: %+v, want %+v", info, want)
		}
		s2 := New(c, 8, opts...)
		if err := s2.LoadCheckpoint(dir); err != nil {
			t.Fatalf("load: %v", err)
		}
		if s2.StepCount() != 1 {
			t.Errorf("step count %d", s2.StepCount())
		}
		for f := 0; f < s.Fields(); f++ {
			a, b := s.Field(f), s2.Field(f)
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("field %d element %d differs", f, i)
				}
			}
		}
	})
}

func TestCheckpointRejectsCorruption(t *testing.T) {
	mpi.Run(1, func(c *mpi.Comm) {
		s := New(c, 8, WithNu(0.02))
		s.SetRandomIsotropic(2, 0.4, 3)
		var buf bytes.Buffer
		if err := s.WriteCheckpointTo(&buf); err != nil {
			t.Fatal(err)
		}
		data := buf.Bytes()
		data[len(data)/2] ^= 0xFF // flip a payload bit
		s2 := New(c, 8, WithNu(0.02))
		err := s2.ReadCheckpointFrom(bytes.NewReader(data))
		if err == nil || !strings.Contains(err.Error(), "crc") {
			t.Errorf("corruption not detected: %v", err)
		}
	})
}

func TestCheckpointRejectsGeometryMismatch(t *testing.T) {
	var blob []byte
	mpi.Run(1, func(c *mpi.Comm) {
		s := New(c, 8, WithNu(0.02))
		var buf bytes.Buffer
		if err := s.WriteCheckpointTo(&buf); err != nil {
			t.Fatal(err)
		}
		blob = buf.Bytes()
	})
	mpi.Run(1, func(c *mpi.Comm) {
		s := New(c, 16, WithNu(0.02))
		err := s.ReadCheckpointFrom(bytes.NewReader(blob))
		if err == nil || !strings.Contains(err.Error(), "N=8") {
			t.Errorf("geometry mismatch not detected: %v", err)
		}
	})
	// Wrong rank count.
	mpi.Run(2, func(c *mpi.Comm) {
		s := New(c, 8, WithNu(0.02))
		err := s.ReadCheckpointFrom(bytes.NewReader(blob))
		if err == nil {
			t.Error("rank-count mismatch not detected")
		}
	})
}

func TestCheckpointRejectsBadMagic(t *testing.T) {
	mpi.Run(1, func(c *mpi.Comm) {
		s := New(c, 8, WithNu(0.02))
		err := s.ReadCheckpointFrom(bytes.NewReader(make([]byte, 128)))
		if err == nil || !strings.Contains(err.Error(), "magic") {
			t.Errorf("bad magic not detected: %v", err)
		}
	})
}

func TestCheckpointEnergyPreserved(t *testing.T) {
	dir := t.TempDir()
	var e1, e2 float64
	mpi.Run(4, func(c *mpi.Comm) {
		s := New(c, 16, WithNu(0.02), WithScheme(RK2), WithDealias(Dealias23))
		s.SetRandomIsotropic(3, 0.5, 77)
		e := s.Energy()
		if err := s.SaveCheckpoint(dir); err != nil {
			t.Fatal(err)
		}
		s2 := New(c, 16, WithNu(0.02), WithScheme(RK2), WithDealias(Dealias23))
		if err := s2.LoadCheckpoint(dir); err != nil {
			t.Fatal(err)
		}
		ee := s2.Energy()
		if c.Rank() == 0 {
			e1, e2 = e, ee
		}
	})
	if math.Abs(e1-e2) > 1e-15 {
		t.Errorf("energy changed across checkpoint: %g vs %g", e1, e2)
	}
	// Files exist, one per rank.
	entries, err := os.ReadDir(dir)
	if err != nil || len(entries) != 4 {
		t.Errorf("checkpoint dir: %v entries, err %v", len(entries), err)
	}
}

// A forced run must continue bitwise identically across a restart:
// version-2 checkpoints record the forcing controller (KF, Eps,
// TCorr, Seed), and the phase walk is stateless given seed and step,
// so restoring those four values restores the stochastic trajectory
// exactly — even into a solver constructed with different forcing
// parameters.
func TestCheckpointForcedSystemRestartContinuesIdentically(t *testing.T) {
	dir := t.TempDir()
	const n, steps = 16, 3
	opts := []Option{WithNu(0.02), WithScheme(RK2), WithDealias(Dealias23),
		WithForcing(2, 0.1), WithForcingNoise(0.5, 42)}
	var straight []complex128
	mpi.Run(2, func(c *mpi.Comm) {
		s := New(c, n, opts...)
		s.SetRandomIsotropic(3, 0.5, 11)
		for i := 0; i < 2*steps; i++ {
			s.Step(0.004)
		}
		if c.Rank() == 0 {
			straight = append([]complex128(nil), s.Uh[0]...)
		}
	})
	var restarted []complex128
	mpi.Run(2, func(c *mpi.Comm) {
		s := New(c, n, opts...)
		s.SetRandomIsotropic(3, 0.5, 11)
		for i := 0; i < steps; i++ {
			s.Step(0.004)
		}
		if err := s.SaveCheckpoint(dir); err != nil {
			t.Errorf("save: %v", err)
		}
		// Deliberately different forcing numbers: the restore must
		// overwrite them with the checkpointed controller state.
		s2 := New(c, n, WithNu(0.02), WithScheme(RK2), WithDealias(Dealias23),
			WithForcing(3, 0.7), WithForcingNoise(0.1, 7))
		if err := s2.LoadCheckpoint(dir); err != nil {
			t.Errorf("load: %v", err)
		}
		fn := s2.System().(interface{ Forcing() *StochasticForcing }).Forcing()
		if fn.KF != 2 || fn.Eps != 0.1 || fn.TCorr != 0.5 || fn.Seed != 42 {
			t.Errorf("forcing state not restored: KF=%d Eps=%g TCorr=%g Seed=%d",
				fn.KF, fn.Eps, fn.TCorr, fn.Seed)
		}
		for i := 0; i < steps; i++ {
			s2.Step(0.004)
		}
		if c.Rank() == 0 {
			restarted = append([]complex128(nil), s2.Uh[0]...)
		}
	})
	for i := range straight {
		if straight[i] != restarted[i] {
			t.Fatalf("forced restart diverged at element %d", i)
		}
	}
}

// Restoring into a different equation set must be rejected by name,
// in both directions, rather than misread positionally.
func TestCheckpointRejectsSystemMismatch(t *testing.T) {
	mpi.Run(1, func(c *mpi.Comm) {
		forced := New(c, 8, WithNu(0.02), WithForcing(2, 0.1))
		var buf bytes.Buffer
		if err := forced.WriteCheckpointTo(&buf); err != nil {
			t.Fatal(err)
		}
		plain := New(c, 8, WithNu(0.02))
		err := plain.ReadCheckpointFrom(bytes.NewReader(buf.Bytes()))
		if err == nil || !strings.Contains(err.Error(), "forced-ns") {
			t.Errorf("forced→ns not rejected: %v", err)
		}

		buf.Reset()
		if err := plain.WriteCheckpointTo(&buf); err != nil {
			t.Fatal(err)
		}
		forced2 := New(c, 8, WithNu(0.02), WithForcing(2, 0.1))
		err = forced2.ReadCheckpointFrom(bytes.NewReader(buf.Bytes()))
		if err == nil || !strings.Contains(err.Error(), `"ns"`) {
			t.Errorf("ns→forced not rejected: %v", err)
		}
	})
}

// writeCkptV1 reproduces the version-1 on-disk layout byte for byte
// (fixed header, three velocity fields, CRC trailer) so the
// compatibility path is pinned against real legacy files.
func writeCkptV1(s *Solver) []byte {
	var buf bytes.Buffer
	crc := crc32.NewIEEE()
	out := io.MultiWriter(&buf, crc)
	hdr := ckptHeader{
		Magic:   ckptMagic,
		Version: 1,
		N:       uint64(s.cfg.N),
		Ranks:   uint64(s.comm.Size()),
		Rank:    uint64(s.slab.Rank),
		Step:    uint64(s.step),
		Time:    s.time,
		Nu:      s.cfg.Nu,
		Fields:  3,
	}
	binary.Write(out, binary.LittleEndian, &hdr)
	for c := 0; c < 3; c++ {
		binary.Write(out, binary.LittleEndian, s.Uh[c])
	}
	binary.Write(&buf, binary.LittleEndian, crc.Sum32())
	return buf.Bytes()
}

// Version-1 files stay readable for the plain "ns" system they were
// written under, and are explicitly rejected by systems they cannot
// describe.
func TestCheckpointV1Compat(t *testing.T) {
	mpi.Run(2, func(c *mpi.Comm) {
		src := New(c, 8, WithNu(0.02))
		src.SetRandomIsotropic(2, 0.4, 5)
		blob := writeCkptV1(src)

		dst := New(c, 8, WithNu(0.02))
		if err := dst.ReadCheckpointFrom(bytes.NewReader(blob)); err != nil {
			t.Fatalf("v1 read into ns: %v", err)
		}
		for cmp := 0; cmp < 3; cmp++ {
			for i := range src.Uh[cmp] {
				if src.Uh[cmp][i] != dst.Uh[cmp][i] {
					t.Fatalf("v1 component %d element %d differs", cmp, i)
				}
			}
		}

		// The header peek names the system a v1 file implies.
		if c.Rank() == 0 {
			dir := t.TempDir()
			if err := os.WriteFile(ckptPath(dir, 0), blob, 0o644); err != nil {
				t.Fatal(err)
			}
			info, err := PeekCheckpoint(dir)
			if want := (CheckpointInfo{N: 8, Ranks: 2, Nu: 0.02, System: "ns", Fields: 3}); err != nil || info != want {
				t.Errorf("v1 peek: %+v, %v; want %+v", info, err, want)
			}
		}

		forced := New(c, 8, WithNu(0.02), WithForcing(2, 0.1))
		err := forced.ReadCheckpointFrom(bytes.NewReader(blob))
		if err == nil || !strings.Contains(err.Error(), "version-1") {
			t.Errorf("v1 into forced-ns not rejected: %v", err)
		}
	})
}

// The peek validates what a driver is about to construct a solver
// from: a header no solver could have written is an error, as is a
// directory with no rank-0 file. Each header below is rejected: no
// ranks; an N past an int (2⁶³ read back as a negative N); an N and a
// rank count of 2²⁰, which cmd/postproc would pass to mpi.Run; and a
// version-1 file, always plain "ns", claiming 2⁴⁰ fields.
func TestPeekCheckpointRejectsImplausibleHeader(t *testing.T) {
	dir := t.TempDir()
	if _, err := PeekCheckpoint(dir); err == nil {
		t.Error("empty directory peeked without error")
	}
	for _, tc := range []struct {
		what string
		hdr  ckptHeader
	}{
		{"zero-rank", ckptHeader{Magic: ckptMagic, Version: 1, N: 16, Ranks: 0, Fields: 3}},
		{"N = 2⁶³", ckptHeader{Magic: ckptMagic, Version: 1, N: 1 << 63, Ranks: 1, Fields: 3}},
		{"N = ranks = 2²⁰", ckptHeader{Magic: ckptMagic, Version: 1, N: 1 << 20, Ranks: 1 << 20, Fields: 3}},
		{"version-1 with 2⁴⁰ fields", ckptHeader{Magic: ckptMagic, Version: 1, N: 16, Ranks: 2, Fields: 1 << 40}},
	} {
		var buf bytes.Buffer
		binary.Write(&buf, binary.LittleEndian, &tc.hdr)
		if err := os.WriteFile(ckptPath(dir, 0), buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		if info, err := PeekCheckpoint(dir); err == nil || !strings.Contains(err.Error(), "implausible") {
			t.Errorf("%s header not rejected: %+v, %v", tc.what, info, err)
		}
	}
}
