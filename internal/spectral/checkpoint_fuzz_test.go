package spectral

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"runtime"
	"testing"

	"repro/internal/mpi"
)

// ckptAllocBound is what reading one checkpoint may allocate at N = 8:
// a read buffer, the 320-mode slab of each field as it is decoded, the
// forced band's mode list, a name of at most 256 bytes and an error
// message — all sized by the solver or by a checked bound, none by a
// header field. A header that sized an allocation (a name length, a
// field count) would ask for up to 2³² or 2⁶⁴ bytes.
const ckptAllocBound = 64 << 10

// FuzzReadCheckpoint feeds arbitrary bytes to ReadCheckpointFrom on
// N = 8, P = 1 solvers of the plain and the forced system, and to
// readCkptHead. Each call returns an error or loads cleanly — the
// header matches the solver, the fields are the payload's bits, the
// step and time the header's — and never panics or allocates more
// than ckptAllocBound. The seeds are checkpoints both solvers wrote
// (version 2) and a version-1 file, so mutations reach every branch
// past the header; testdata/fuzz/FuzzReadCheckpoint adds hand-made
// headers (implausible name length, bad magic and version, a forcing
// block the plain system lacks, truncations).
func FuzzReadCheckpoint(f *testing.F) {
	var plain, forced *Solver
	mpi.Run(1, func(c *mpi.Comm) {
		plain = New(c, 8, WithNu(0.02))
		forced = New(c, 8, WithNu(0.02), WithForcing(2, 0.1), WithForcingNoise(0.5, 3))
	})
	for _, s := range []*Solver{plain, forced} {
		s.SetRandomIsotropic(2, 0.4, 5)
		s.step, s.time = 3, 0.012
		var buf bytes.Buffer
		if err := s.WriteCheckpointTo(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add(writeCkptV1(plain))
	f.Fuzz(func(t *testing.T, data []byte) {
		if _, _, err := readCkptHead(bytes.NewReader(data)); err == nil && len(data) < binary.Size(ckptHeader{}) {
			t.Fatalf("a %d-byte input passed the header read", len(data))
		}
		for _, s := range []*Solver{plain, forced} {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			before := ms.TotalAlloc
			err := s.ReadCheckpointFrom(bytes.NewReader(data))
			runtime.ReadMemStats(&ms)
			if got := ms.TotalAlloc - before; got > ckptAllocBound {
				t.Fatalf("%s: reading %d bytes allocated %d B (err %v)", s.sys.Name(), len(data), got, err)
			}
			if err == nil {
				checkCleanLoad(t, s, data)
			}
		}
	})
}

// checkCleanLoad requires a solver that accepted data to hold exactly
// what data says: a header naming its geometry and system, the header's
// step and time, and the field payload bit for bit.
func checkCleanLoad(t *testing.T, s *Solver, data []byte) {
	hdr, name, err := readCkptHead(bytes.NewReader(data))
	if err != nil || hdr.N != 8 || hdr.Ranks != 1 || hdr.Rank != 0 || name != s.sys.Name() || hdr.Fields != uint64(s.nf) {
		t.Fatalf("%s: loaded a file of header %+v, system %q (%v)", s.sys.Name(), hdr, name, err)
	}
	if s.step != int(hdr.Step) || math.Float64bits(s.time) != math.Float64bits(hdr.Time) {
		t.Fatalf("%s: step %d time %v after loading step %d time %v", s.sys.Name(), s.step, s.time, hdr.Step, hdr.Time)
	}
	off := binary.Size(ckptHeader{})
	if hdr.Version != 1 {
		off += 4 + len(name)
		if present := binary.LittleEndian.Uint32(data[off:]); present == 1 {
			off += binary.Size(ckptForcing{})
		}
		off += 4
	}
	payload := make([]complex128, s.nf*len(s.state[0]))
	if err := binary.Read(bytes.NewReader(data[off:]), binary.LittleEndian, payload); err != nil {
		t.Fatalf("%s: loaded a file too short for its fields: %v", s.sys.Name(), err)
	}
	for c, f := range s.state {
		for i, v := range f {
			w := payload[c*len(f)+i]
			if math.Float64bits(real(v)) != math.Float64bits(real(w)) || math.Float64bits(imag(v)) != math.Float64bits(imag(w)) {
				t.Fatalf("%s: field %d mode %d loaded as %v, the file holds %v", s.sys.Name(), c, i, v, w)
			}
		}
	}
}

// ckptHead encodes a checkpoint's head as WriteCheckpointTo does: the
// fixed header and, past version 1, the system name.
func ckptHead(hdr ckptHeader, name string) []byte {
	var buf bytes.Buffer
	binary.Write(&buf, binary.LittleEndian, &hdr)
	if hdr.Version != 1 {
		binary.Write(&buf, binary.LittleEndian, uint32(len(name)))
		buf.WriteString(name)
	}
	return buf.Bytes()
}

// FuzzPeekCheckpoint feeds arbitrary bytes, as rank 0's file, to
// PeekCheckpoint. Each input yields an error, or an info a solver can be
// built from — N even in [4, maxCkptN], Ranks ≥ 1 dividing N, 3 fields
// in a version-1 file and at most 3 + maxCkptScalars otherwise — that
// says what readCkptHead reads. Nothing is built from it: the peek is
// tested alone. Seeds: a version-1 head and a version-2 one as a
// solver writes them, and the headers
// TestPeekCheckpointRejectsImplausibleHeader rejects.
func FuzzPeekCheckpoint(f *testing.F) {
	v1 := ckptHeader{Magic: ckptMagic, Version: 1, N: 16, Ranks: 2, Step: 3, Time: 0.012, Nu: 0.02, Fields: 3}
	v2 := v1
	v2.Version, v2.Fields = ckptVersion, 5
	f.Add(ckptHead(v1, ""))
	f.Add(ckptHead(v2, "rotating-scalar"))
	for _, bad := range []ckptHeader{
		{Magic: ckptMagic, Version: 1, N: 1 << 63, Ranks: 1, Fields: 3},
		{Magic: ckptMagic, Version: 1, N: 1 << 20, Ranks: 1 << 20, Fields: 3},
		{Magic: ckptMagic, Version: 1, N: 16, Ranks: 2, Fields: 1 << 40},
	} {
		f.Add(ckptHead(bad, ""))
	}
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(ckptPath(dir, 0), data, 0o644); err != nil {
			t.Fatal(err)
		}
		info, err := PeekCheckpoint(dir)
		if err != nil {
			return
		}
		hdr, name, herr := readCkptHead(bytes.NewReader(data))
		if herr != nil {
			t.Fatalf("peeked %+v from a head readCkptHead rejects: %v", info, herr)
		}
		maxFields := 3 + maxCkptScalars
		if hdr.Version == 1 {
			maxFields = 3
		}
		if info.N < 4 || info.N > maxCkptN || info.N%2 != 0 || info.Ranks < 1 || info.N%info.Ranks != 0 ||
			info.Fields < 3 || info.Fields > maxFields {
			t.Fatalf("peeked a header no solver could have written: %+v (version %d)", info, hdr.Version)
		}
		if uint64(info.N) != hdr.N || uint64(info.Ranks) != hdr.Ranks || uint64(info.Fields) != hdr.Fields ||
			math.Float64bits(info.Nu) != math.Float64bits(hdr.Nu) || info.System != name {
			t.Fatalf("peeked %+v, the head says %+v, system %q", info, hdr, name)
		}
	})
}
