// Package ckpt provides fault-tolerant training checkpoints: versioned,
// checksummed snapshots published by WriteFileAtomic (temp file, rename,
// directory sync) with keep-last-K retention. Corruption — a torn write, a
// flipped bit, a truncated file — is detected by a CRC over the payload at
// load time, and LoadLatest transparently falls back to the previous good
// snapshot, so a crash during checkpointing can never strand a run.
//
// A Snapshot carries the trainer-loop state (epoch, step, weights, batch
// iterator, early-stopping history) plus one section bundle per rank,
// appended by StateSaver implementations in mat's byte codec, the one the
// TCP wire speaks. Every optimizer and preconditioner is one (opt.Optimizer
// and opt.Preconditioner embed StateSaver), and nearly every saver is a
// mat.Section: a key and the mat.Fields list of its state, which encodes
// and decodes it in one place.
// Rank 0 owns the file: per-rank bundles are gathered through the
// cluster's collectives and written in one atomic operation, so a
// checkpoint is always globally consistent — there is no per-rank file to
// half-update.
package ckpt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"log"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/mat"
	"repro/internal/telemetry"
)

// Version is the checkpoint format version, the last byte of the magic.
// A file of any other version is refused by name; none is migrated.
const Version = 2

// magic identifies a HyLo checkpoint file and its format version.
var magic = [8]byte{'H', 'Y', 'L', 'O', 'C', 'K', 'P', '0' + Version}

// headerLen is the magic, the payload's CRC-32C and its length (u64).
const headerLen = len(magic) + 12

// ErrNoCheckpoint is returned by LoadLatest when the directory holds no
// loadable snapshot at all.
var ErrNoCheckpoint = errors.New("ckpt: no checkpoint found")

// StateSaver is implemented by components whose state rides in a
// checkpoint section: optimizers, preconditioners, and any other stateful
// training participant. Each writes its state with mat's byte codec under
// a stable section name.
type StateSaver interface {
	// StateKey names this component's section; it must be unique within a
	// rank and stable across versions.
	StateKey() string
	// AppendState appends the component's complete mutable state to b and
	// returns the extended buffer.
	AppendState(b []byte) []byte
	// StateBytes is the length AppendState appends (Table IV's state).
	StateBytes() int
	// LoadState restores state previously written by AppendState on an
	// identically configured component, checking every length it reads;
	// on an error it leaves the component as it was. b aliases the
	// snapshot: copy out of it, never keep it.
	LoadState(data []byte) error
}

// Snapshot is the in-memory checkpoint payload.
type Snapshot struct {
	// Version is the format version the snapshot was written with.
	Version int
	// Epoch is the last fully completed epoch (0-based).
	Epoch int
	// Step is the number of optimizer steps completed.
	Step int
	// P is the world size at save time.
	P int
	// Trainer is the rank-independent trainer-loop section (batch
	// iterator, early-stopping history, wall-clock offset), written by
	// rank 0.
	Trainer []byte
	// Ranks holds one section bundle per rank (see EncodeSections);
	// Ranks[r] belongs to rank r. On elastic restarts with a smaller world
	// size, trailing bundles are simply unused.
	Ranks [][]byte
}

// EncodeSections encodes one rank bundle, in one buffer of its exact
// length: per non-nil saver its key (u32 length-prefixed) and its state
// (u64 length-prefixed).
func EncodeSections(savers ...StateSaver) []byte {
	n := 0
	for _, s := range savers {
		if s != nil {
			n += 4 + len(s.StateKey()) + 8 + s.StateBytes()
		}
	}
	b := make([]byte, 0, n)
	for _, s := range savers {
		if s == nil {
			continue
		}
		key := s.StateKey()
		b = append(binary.LittleEndian.AppendUint32(b, uint32(len(key))), key...)
		at := len(b)
		b = s.AppendState(append(b, make([]byte, 8)...))
		binary.LittleEndian.PutUint64(b[at:], uint64(len(b)-at-8))
	}
	return b
}

// DecodeSections parses a rank bundle written by EncodeSections; each
// section aliases b.
func DecodeSections(b []byte) (map[string][]byte, error) {
	sections := map[string][]byte{}
	r := mat.NewReader(b)
	for r.Len() > 0 && r.Err() == nil {
		key := string(r.Take(int(r.U32())))
		sections[key] = r.Take(int(r.U64()))
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("ckpt: decode sections: %w", err)
	}
	return sections, nil
}

// LoadInto restores saver from its section if present, reporting whether a
// section existed. A missing section is not an error: elastic restarts may
// add components (or shrink the world) between snapshots; callers decide
// whether to rebuild from scratch.
func LoadInto(sections map[string][]byte, saver StateSaver) (bool, error) {
	b, ok := sections[saver.StateKey()]
	if !ok {
		return false, nil
	}
	if err := saver.LoadState(b); err != nil {
		return true, fmt.Errorf("ckpt: load %q: %w", saver.StateKey(), err)
	}
	return true, nil
}

// Manager reads and writes snapshots in one directory with keep-last-K
// retention. It is used from a single goroutine (rank 0 / the elastic
// driver).
type Manager struct {
	// Dir is the checkpoint directory (created on first save).
	Dir string
	// Keep bounds how many snapshots are retained (<= 0 selects 3). The
	// retention floor is 2 so corruption of the newest file always leaves
	// a fallback.
	Keep int
}

// NewManager returns a Manager over dir, creating it if needed.
func NewManager(dir string, keep int) (*Manager, error) {
	if dir == "" {
		return nil, errors.New("ckpt: empty checkpoint directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("ckpt: create dir: %w", err)
	}
	return &Manager{Dir: dir, Keep: keep}, nil
}

func (m *Manager) keep() int {
	k := m.Keep
	if k <= 0 {
		k = 3
	}
	if k < 2 {
		k = 2
	}
	return k
}

// fileName returns the canonical snapshot name; zero-padded steps keep
// lexicographic order equal to training order.
func fileName(step int) string { return fmt.Sprintf("ckpt-%012d.hylo", step) }

// List returns the snapshot paths in the directory, oldest first,
// excluding quarantined (.corrupt) and temporary files.
func (m *Manager) List() ([]string, error) {
	ents, err := os.ReadDir(m.Dir)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, nil
		}
		return nil, err
	}
	var out []string
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || filepath.Ext(name) != ".hylo" {
			continue
		}
		out = append(out, filepath.Join(m.Dir, name))
	}
	sort.Strings(out)
	return out, nil
}

// Save writes snap atomically (staged like WriteFileAtomic) and applies
// retention, returning the final path. The header's CRC-32C is taken over
// the sections where they lie, then header and sections stream into the
// staged file: no buffer holds the whole file.
func (m *Manager) Save(snap *Snapshot) (string, error) {
	if err := os.MkdirAll(m.Dir, 0o755); err != nil {
		return "", fmt.Errorf("ckpt: create dir: %w", err)
	}
	snap.Version = Version
	final := filepath.Join(m.Dir, fileName(snap.Step))
	err := writeAtomic(final, func(f *os.File) error {
		_, err := f.Write(header(snap))
		payload(snap, func(b []byte) {
			if err == nil {
				_, err = f.Write(b)
			}
		})
		return err
	})
	if err != nil {
		return "", err
	}
	telemetry.IncCounter(telemetry.MetricCkptWrites, 1)
	m.retain()
	return final, nil
}

// Encode returns snap in the file format, the bytes Save writes, in one
// buffer of exactly their length.
func Encode(snap *Snapshot) []byte {
	hdr := header(snap)
	b := append(make([]byte, 0, headerLen+int(binary.LittleEndian.Uint64(hdr[len(magic)+4:]))), hdr...)
	payload(snap, func(p []byte) { b = append(b, p...) })
	return b
}

// header returns the file header for snap: the magic, then its payload's
// CRC-32C and length.
func header(snap *Snapshot) []byte {
	var crc uint32
	var n uint64
	payload(snap, func(b []byte) { crc, n = crc32.Update(crc, crcTable, b), n+uint64(len(b)) })
	return binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint32(append([]byte(nil), magic[:]...), crc), n)
}

// payload hands snap's payload to emit piece by piece: epoch, step and P,
// then the trainer section and the rank bundles, each u64
// length-prefixed.
func payload(snap *Snapshot, emit func([]byte)) {
	le := binary.LittleEndian
	emit(le.AppendUint32(le.AppendUint64(le.AppendUint64(nil, uint64(snap.Epoch)), uint64(snap.Step)), uint32(snap.P)))
	emit(le.AppendUint64(nil, uint64(len(snap.Trainer))))
	emit(snap.Trainer)
	emit(le.AppendUint32(nil, uint32(len(snap.Ranks))))
	for _, r := range snap.Ranks {
		emit(le.AppendUint64(nil, uint64(len(r))))
		emit(r)
	}
}

// WriteFileAtomic publishes data at path — the job server's job.json and
// result.json — so that a reader never observes a torn file and the bytes
// survive a crash once it returns: staged in a temp file in the same
// directory, synced, renamed into place, and the directory synced so the
// rename itself is durable. On failure the temp file is removed.
func WriteFileAtomic(path string, data []byte) error {
	return writeAtomic(path, func(f *os.File) error {
		_, err := f.Write(data)
		return err
	})
}

// writeAtomic is WriteFileAtomic with the staged file's contents written
// by fill.
func writeAtomic(path string, fill func(*os.File) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".tmp-"+filepath.Base(path)+"-*")
	if err != nil {
		return fmt.Errorf("ckpt: stage %s: %w", path, err)
	}
	err = fill(tmp)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("ckpt: publish %s: %w", path, err)
	}
	d, err := os.Open(dir)
	if err == nil {
		err = d.Sync()
		d.Close()
	}
	if err != nil {
		return fmt.Errorf("ckpt: sync %s: %w", dir, err)
	}
	return nil
}

// removeFile is a seam for testing retention-failure handling.
var removeFile = os.Remove

// retain deletes the oldest snapshots beyond the keep-last-K budget.
// Retention failures never fail the checkpoint that triggered the sweep
// (stale files cost disk, not correctness), but they are no longer
// silent: each sweep logs one aggregated line and bumps the
// ckpt_retention_errors counter so an operator sees disk quietly filling.
func (m *Manager) retain() {
	paths, err := m.List()
	if err != nil {
		telemetry.IncCounter(telemetry.MetricCkptRetentionErrors, 1)
		log.Printf("ckpt: retention sweep: list %s: %v", m.Dir, err)
		return
	}
	var failed int
	var first error
	for len(paths) > m.keep() {
		if err := removeFile(paths[0]); err != nil && !errors.Is(err, os.ErrNotExist) {
			failed++
			if first == nil {
				first = err
			}
		}
		paths = paths[1:]
	}
	if failed > 0 {
		telemetry.IncCounter(telemetry.MetricCkptRetentionErrors, int64(failed))
		log.Printf("ckpt: retention sweep in %s: %d delete(s) failed (first: %v)",
			m.Dir, failed, first)
	}
}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Load reads and verifies a single snapshot file (see Decode). Any
// framing, version, checksum, length or decode failure is reported as
// corruption.
func Load(path string) (*Snapshot, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	snap, err := Decode(b)
	if err != nil {
		return nil, fmt.Errorf("ckpt: %s: %w", filepath.Base(path), err)
	}
	return snap, nil
}

// Decode parses and verifies bytes in the file format; the snapshot's
// sections alias b.
func Decode(b []byte) (*Snapshot, error) {
	switch {
	case len(b) < headerLen:
		return nil, errors.New("truncated header")
	case !bytes.Equal(b[:len(magic)-1], magic[:len(magic)-1]):
		return nil, errors.New("bad magic")
	case b[len(magic)-1] != magic[len(magic)-1]:
		return nil, fmt.Errorf("format version %d, this build reads version %d only",
			int(b[len(magic)-1])-'0', Version)
	}
	wantCRC := binary.LittleEndian.Uint32(b[len(magic):])
	wantLen := binary.LittleEndian.Uint64(b[len(magic)+4:])
	payload := b[headerLen:]
	if uint64(len(payload)) != wantLen {
		return nil, fmt.Errorf("payload %d bytes, header says %d", len(payload), wantLen)
	}
	if got := crc32.Checksum(payload, crcTable); got != wantCRC {
		return nil, fmt.Errorf("checksum mismatch (%08x != %08x)", got, wantCRC)
	}
	r := mat.NewReader(payload)
	snap := &Snapshot{Version: Version, Epoch: int(r.U64()), Step: int(r.U64()), P: int(r.U32())}
	snap.Trainer = r.Take(int(r.U64()))
	// Every bundle has at least its 8-byte length: bound the count before
	// allocating for it.
	if n := int(r.U32()); n <= r.Len()/8 {
		snap.Ranks = make([][]byte, n)
	} else {
		r.Fail(mat.ErrTruncated)
	}
	for i := range snap.Ranks {
		snap.Ranks[i] = r.Take(int(r.U64()))
	}
	if r.Err() == nil && r.Len() != 0 {
		r.Fail(fmt.Errorf("%d trailing bytes", r.Len()))
	}
	if err := r.Err(); err != nil {
		return nil, fmt.Errorf("decode: %w", err)
	}
	return snap, nil
}

// LoadLatest returns the newest loadable snapshot and its path. Corrupt
// snapshots are quarantined (renamed to <name>.corrupt) and counted, and
// the search rolls back to the previous snapshot — the recovery protocol's
// "last good checkpoint" semantics. ErrNoCheckpoint is returned when
// nothing loadable remains.
func (m *Manager) LoadLatest() (*Snapshot, string, error) {
	paths, err := m.List()
	if err != nil {
		return nil, "", err
	}
	for i := len(paths) - 1; i >= 0; i-- {
		snap, err := Load(paths[i])
		if err == nil {
			telemetry.IncCounter(telemetry.MetricCkptRestores, 1)
			return snap, paths[i], nil
		}
		if errors.Is(err, os.ErrNotExist) {
			continue
		}
		telemetry.IncCounter(telemetry.MetricCkptCorrupt, 1)
		telemetry.Instant("ckpt_corrupt", 0,
			telemetry.Label{Key: "file", Value: filepath.Base(paths[i])},
			telemetry.Label{Key: "error", Value: err.Error()})
		os.Rename(paths[i], paths[i]+".corrupt")
	}
	return nil, "", ErrNoCheckpoint
}
