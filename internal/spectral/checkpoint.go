package spectral

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

// Checkpointing: production DNS campaigns integrate "many thousands of
// time steps" (§2) across many job allocations, so the solution must
// be able to leave and re-enter the machine exactly. Each rank writes
// its own Fourier-space slab (one file per rank, the pattern used on
// parallel file systems like Summit's SpectrumScale), with a
// self-describing header and a CRC so a corrupted restart is detected
// rather than silently integrated.

const (
	ckptMagic = 0x50534e53 // "PSNS"
	// ckptVersion 2 makes the file self-describing about its physics:
	// after the fixed header it records the equation-set name (so a
	// restart into a different system is rejected explicitly rather
	// than misread positionally) and, for forced systems, the
	// stochastic-forcing controller state (KF, Eps, TCorr, Seed — the
	// phase walk is stateless given seed and step, so these four
	// values restore it exactly), and it serializes all registry
	// fields generically rather than assuming the 3-velocity layout.
	// Version-1 files remain readable for the plain "ns" system they
	// were all written under; writes always produce version 2.
	ckptVersion = 2
)

type ckptHeader struct {
	Magic   uint32
	Version uint32
	N       uint64
	Ranks   uint64
	Rank    uint64
	Step    uint64
	Time    float64
	Nu      float64
	Fields  uint64 // the system's field count
}

// ckptForcing is the serialized StochasticForcing controller state.
type ckptForcing struct {
	KF    uint64
	Eps   float64
	TCorr float64
	Seed  int64
}

// forcingHolder is the accessor a forced system exposes (ForcedNS
// does); the checkpoint uses it to round-trip controller state.
type forcingHolder interface {
	Forcing() *StochasticForcing
}

// WriteCheckpointTo serializes this rank's state to w.
func (s *Solver) WriteCheckpointTo(w io.Writer) error {
	bw := bufio.NewWriter(w)
	crc := crc32.NewIEEE()
	out := io.MultiWriter(bw, crc)
	hdr := ckptHeader{
		Magic:   ckptMagic,
		Version: ckptVersion,
		N:       uint64(s.cfg.N),
		Ranks:   uint64(s.comm.Size()),
		Rank:    uint64(s.slab.Rank),
		Step:    uint64(s.step),
		Time:    s.time,
		Nu:      s.cfg.Nu,
		Fields:  uint64(s.nf),
	}
	if err := binary.Write(out, binary.LittleEndian, &hdr); err != nil {
		return fmt.Errorf("checkpoint header: %w", err)
	}
	name := []byte(s.sys.Name())
	if err := binary.Write(out, binary.LittleEndian, uint32(len(name))); err != nil {
		return fmt.Errorf("checkpoint system name: %w", err)
	}
	if _, err := out.Write(name); err != nil {
		return fmt.Errorf("checkpoint system name: %w", err)
	}
	var present uint32
	var fstate ckptForcing
	if fh, ok := s.sys.(forcingHolder); ok {
		f := fh.Forcing()
		present = 1
		fstate = ckptForcing{KF: uint64(f.KF), Eps: f.Eps, TCorr: f.TCorr, Seed: f.Seed}
	}
	if err := binary.Write(out, binary.LittleEndian, present); err != nil {
		return fmt.Errorf("checkpoint forcing flag: %w", err)
	}
	if present == 1 {
		if err := binary.Write(out, binary.LittleEndian, &fstate); err != nil {
			return fmt.Errorf("checkpoint forcing state: %w", err)
		}
	}
	for c := 0; c < s.nf; c++ {
		if err := binary.Write(out, binary.LittleEndian, s.state[c]); err != nil {
			return fmt.Errorf("checkpoint field %d: %w", c, err)
		}
	}
	if err := binary.Write(bw, binary.LittleEndian, crc.Sum32()); err != nil {
		return fmt.Errorf("checkpoint crc: %w", err)
	}
	return bw.Flush()
}

// readCkptHead reads the part of a checkpoint that describes the run
// rather than this solver: the fixed header (magic and version
// validated) and the name of the system that wrote it — "ns" for
// version-1 files, which carry no system identity and were all written
// under the pre-registry 3-velocity layout.
func readCkptHead(in io.Reader) (ckptHeader, string, error) {
	var hdr ckptHeader
	if err := binary.Read(in, binary.LittleEndian, &hdr); err != nil {
		return hdr, "", fmt.Errorf("checkpoint header: %w", err)
	}
	switch {
	case hdr.Magic != ckptMagic:
		return hdr, "", fmt.Errorf("checkpoint: bad magic %#x", hdr.Magic)
	case hdr.Version == 1:
		return hdr, "ns", nil
	case hdr.Version != ckptVersion:
		return hdr, "", fmt.Errorf("checkpoint: unsupported version %d", hdr.Version)
	}
	var nlen uint32
	if err := binary.Read(in, binary.LittleEndian, &nlen); err != nil {
		return hdr, "", fmt.Errorf("checkpoint system name: %w", err)
	}
	if nlen > 256 {
		return hdr, "", fmt.Errorf("checkpoint: implausible system-name length %d (corrupted file)", nlen)
	}
	name := make([]byte, nlen)
	if _, err := io.ReadFull(in, name); err != nil {
		return hdr, "", fmt.Errorf("checkpoint system name: %w", err)
	}
	return hdr, string(name), nil
}

// CheckpointInfo is what a checkpoint says about the run that wrote
// it — enough to construct the matching solver before restoring.
type CheckpointInfo struct {
	N      int     // grid points per direction
	Ranks  int     // rank count it was written on
	Nu     float64 // kinematic viscosity
	System string  // equation-set name ("ns" for version-1 files)
	Fields int     // spectral fields stored (3 velocity + system extras)
}

// PeekCheckpoint reads the header of rank 0's file under dir without
// touching the field data: the CRC is not checked (LoadCheckpoint does
// that), only that the header describes a constructible solver.
func PeekCheckpoint(dir string) (CheckpointInfo, error) {
	f, err := os.Open(ckptPath(dir, 0))
	if err != nil {
		return CheckpointInfo{}, err
	}
	defer f.Close()
	hdr, name, err := readCkptHead(f)
	if err != nil {
		return CheckpointInfo{}, err
	}
	if hdr.N < 4 || hdr.N%2 != 0 || hdr.Ranks < 1 || hdr.N%hdr.Ranks != 0 || hdr.Fields < 3 {
		return CheckpointInfo{}, fmt.Errorf("checkpoint: implausible header N=%d ranks=%d fields=%d (corrupted file)", hdr.N, hdr.Ranks, hdr.Fields)
	}
	return CheckpointInfo{
		N: int(hdr.N), Ranks: int(hdr.Ranks), Nu: hdr.Nu,
		System: name, Fields: int(hdr.Fields),
	}, nil
}

// ReadCheckpointFrom restores this rank's state from r, validating
// geometry, rank identity, system identity and the CRC. The solver
// must already be constructed with a matching configuration.
func (s *Solver) ReadCheckpointFrom(r io.Reader) error {
	crc := crc32.NewIEEE()
	in := io.TeeReader(bufio.NewReader(r), crc)
	hdr, name, err := readCkptHead(in)
	switch {
	case err != nil:
		return err
	case hdr.N != uint64(s.cfg.N):
		return fmt.Errorf("checkpoint: N=%d, solver has %d", hdr.N, s.cfg.N)
	case hdr.Ranks != uint64(s.comm.Size()):
		return fmt.Errorf("checkpoint: written on %d ranks, running on %d", hdr.Ranks, s.comm.Size())
	case hdr.Rank != uint64(s.slab.Rank):
		return fmt.Errorf("checkpoint: file is rank %d, this is rank %d", hdr.Rank, s.slab.Rank)
	case hdr.Version == 1 && s.sys.Name() != name:
		// Restoring a v1 file into any richer system would misattribute
		// state positionally.
		return fmt.Errorf("checkpoint: version-1 file carries no system identity; solver runs %q (only plain \"ns\" restores v1 files)", s.sys.Name())
	case s.sys.Name() != name:
		return fmt.Errorf("checkpoint: written by system %q, solver runs %q (construct the solver with the matching system before restoring)", name, s.sys.Name())
	}
	if hdr.Version != 1 {
		var present uint32
		if err := binary.Read(in, binary.LittleEndian, &present); err != nil {
			return fmt.Errorf("checkpoint forcing flag: %w", err)
		}
		if present == 1 {
			var fstate ckptForcing
			if err := binary.Read(in, binary.LittleEndian, &fstate); err != nil {
				return fmt.Errorf("checkpoint forcing state: %w", err)
			}
			fh, ok := s.sys.(forcingHolder)
			if !ok {
				return fmt.Errorf("checkpoint: file records forcing state but system %q has no forcing controller", s.sys.Name())
			}
			f := fh.Forcing()
			f.KF, f.Eps, f.TCorr, f.Seed = int(fstate.KF), fstate.Eps, fstate.TCorr, fstate.Seed
		}
	}
	if hdr.Fields != uint64(s.nf) {
		return fmt.Errorf("checkpoint: %d fields written, %d expected", hdr.Fields, s.nf)
	}
	for c := 0; c < s.nf; c++ {
		if err := binary.Read(in, binary.LittleEndian, s.state[c]); err != nil {
			return fmt.Errorf("checkpoint field %d: %w", c, err)
		}
	}
	// Snapshot the digest of the payload, then read the trailer (the
	// trailer itself is not covered by the CRC).
	want := crc.Sum32()
	var got uint32
	if err := binary.Read(in, binary.LittleEndian, &got); err != nil {
		return fmt.Errorf("checkpoint crc: %w", err)
	}
	if got != want {
		return fmt.Errorf("checkpoint: crc mismatch %#x != %#x (corrupted file)", got, want)
	}
	s.step = int(hdr.Step)
	s.time = hdr.Time
	return nil
}

// ckptPath names this rank's file inside dir.
func ckptPath(dir string, rank int) string {
	return filepath.Join(dir, fmt.Sprintf("ckpt_rank%05d.bin", rank))
}

// SaveCheckpoint writes one file per rank under dir (collective: every
// rank must call it; dir is created if needed).
func (s *Solver) SaveCheckpoint(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(ckptPath(dir, s.slab.Rank))
	if err != nil {
		return err
	}
	werr := s.WriteCheckpointTo(f)
	cerr := f.Close()
	s.comm.Barrier() // checkpoint is complete only when every rank is done
	if werr != nil {
		return werr
	}
	return cerr
}

// LoadCheckpoint restores this rank's state from dir (collective).
func (s *Solver) LoadCheckpoint(dir string) error {
	f, err := os.Open(ckptPath(dir, s.slab.Rank))
	if err != nil {
		return err
	}
	defer f.Close()
	rerr := s.ReadCheckpointFrom(f)
	s.comm.Barrier()
	return rerr
}
