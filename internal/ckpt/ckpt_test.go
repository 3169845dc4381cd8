package ckpt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

func testSnap(epoch, step int) *Snapshot {
	return &Snapshot{
		Epoch:   epoch,
		Step:    step,
		P:       2,
		Trainer: []byte("trainer-state"),
		Ranks:   [][]byte{[]byte("rank0"), []byte("rank1")},
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	m, err := NewManager(t.TempDir(), 3)
	if err != nil {
		t.Fatal(err)
	}
	path, err := m.Save(testSnap(4, 120))
	if err != nil {
		t.Fatal(err)
	}
	snap, got, err := m.LoadLatest()
	if err != nil {
		t.Fatal(err)
	}
	if got != path {
		t.Fatalf("loaded %s, saved %s", got, path)
	}
	if snap.Epoch != 4 || snap.Step != 120 || snap.P != 2 {
		t.Fatalf("round trip mangled header: %+v", snap)
	}
	if string(snap.Trainer) != "trainer-state" {
		t.Fatalf("trainer section = %q", snap.Trainer)
	}
	if len(snap.Ranks) != 2 || string(snap.Ranks[1]) != "rank1" {
		t.Fatalf("rank sections = %v", snap.Ranks)
	}
	if snap.Version != Version {
		t.Fatalf("version = %d; want %d", snap.Version, Version)
	}
}

func TestSaveLeavesNoTempFiles(t *testing.T) {
	dir := t.TempDir()
	m, _ := NewManager(dir, 3)
	for s := 1; s <= 4; s++ {
		if _, err := m.Save(testSnap(s, s*10)); err != nil {
			t.Fatal(err)
		}
	}
	ents, _ := os.ReadDir(dir)
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), ".tmp-") {
			t.Fatalf("temp file left behind: %s", e.Name())
		}
	}
}

// noTempFiles fails the test if dir holds a staged-but-unpublished file.
func noTempFiles(t *testing.T, dir string) {
	t.Helper()
	ents, _ := os.ReadDir(dir)
	for _, e := range ents {
		if strings.HasPrefix(e.Name(), ".tmp-") {
			t.Fatalf("temp file left behind: %s", e.Name())
		}
	}
}

// TestWriteFileAtomicFailedRename: a publish whose rename fails (a
// directory holds the target name) reports it and leaves no temp file, and
// Save publishes through the same helper.
func TestWriteFileAtomicFailedRename(t *testing.T) {
	dir := t.TempDir()
	target := filepath.Join(dir, "result.json")
	if err := os.Mkdir(target, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(target, []byte("{}\n")); err == nil || !strings.Contains(err.Error(), "ckpt: publish") {
		t.Fatalf("publish over a directory: err = %v", err)
	}
	noTempFiles(t, dir)

	m, _ := NewManager(t.TempDir(), 3)
	if err := os.Mkdir(filepath.Join(m.Dir, fileName(10)), 0o755); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Save(testSnap(1, 10)); err == nil || !strings.Contains(err.Error(), "ckpt: publish") {
		t.Fatalf("Save over a directory: err = %v", err)
	}
	noTempFiles(t, m.Dir)

	if err := WriteFileAtomic(filepath.Join(dir, "job.json"), []byte("x")); err != nil {
		t.Fatal(err)
	}
	if b, _ := os.ReadFile(filepath.Join(dir, "job.json")); string(b) != "x" {
		t.Fatalf("published %q; want %q", b, "x")
	}
}

func TestRetentionKeepsLastK(t *testing.T) {
	dir := t.TempDir()
	m, _ := NewManager(dir, 2)
	for s := 1; s <= 5; s++ {
		if _, err := m.Save(testSnap(s, s)); err != nil {
			t.Fatal(err)
		}
	}
	paths, err := m.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 2 {
		t.Fatalf("retained %d snapshots; want 2 (%v)", len(paths), paths)
	}
	snap, _, err := m.LoadLatest()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Step != 5 {
		t.Fatalf("latest step = %d; want 5", snap.Step)
	}
}

// Corruption of the newest snapshot must be detected by checksum and roll
// back to the previous good snapshot, quarantining the bad file.
func TestCorruptionFallsBack(t *testing.T) {
	dir := t.TempDir()
	m, _ := NewManager(dir, 3)
	if _, err := m.Save(testSnap(1, 10)); err != nil {
		t.Fatal(err)
	}
	latest, err := m.Save(testSnap(2, 20))
	if err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte in the newest file.
	b, _ := os.ReadFile(latest)
	b[len(b)-3] ^= 0x40
	if err := os.WriteFile(latest, b, 0o644); err != nil {
		t.Fatal(err)
	}

	snap, path, err := m.LoadLatest()
	if err != nil {
		t.Fatalf("fallback failed: %v", err)
	}
	if snap.Step != 10 {
		t.Fatalf("fell back to step %d; want 10", snap.Step)
	}
	if path == latest {
		t.Fatal("returned the corrupted path")
	}
	if _, err := os.Stat(latest + ".corrupt"); err != nil {
		t.Fatalf("corrupt file not quarantined: %v", err)
	}
	// A second load must not trip over the quarantined file.
	if _, _, err := m.LoadLatest(); err != nil {
		t.Fatalf("reload after quarantine: %v", err)
	}
}

func TestTruncationDetected(t *testing.T) {
	dir := t.TempDir()
	m, _ := NewManager(dir, 3)
	path, err := m.Save(testSnap(1, 10))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := os.ReadFile(path)
	if err := os.WriteFile(path, b[:len(b)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil {
		t.Fatal("truncated snapshot loaded without error")
	}
	if _, _, err := m.LoadLatest(); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("want ErrNoCheckpoint after quarantining the only file, got %v", err)
	}
}

func TestLoadLatestEmptyDir(t *testing.T) {
	m, _ := NewManager(t.TempDir(), 3)
	if _, _, err := m.LoadLatest(); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("want ErrNoCheckpoint, got %v", err)
	}
}

func TestLoadRejectsForeignFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ckpt-000000000001.hylo")
	if err := os.WriteFile(path, []byte("not a checkpoint at all, definitely"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("want bad-magic error, got %v", err)
	}
}

func TestSectionsRoundTrip(t *testing.T) {
	in := map[string][]byte{"opt/sgd": {1, 2, 3}, "precond/hylo": {4, 5}}
	b := EncodeSections(&fakeSaver{key: "opt/sgd", state: in["opt/sgd"]}, &fakeSaver{key: "precond/hylo", state: in["precond/hylo"]})
	out, err := DecodeSections(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || !bytes.Equal(out["opt/sgd"], in["opt/sgd"]) || !bytes.Equal(out["precond/hylo"], in["precond/hylo"]) {
		t.Fatalf("sections round trip = %v", out)
	}
}

type fakeSaver struct {
	key    string
	state  []byte
	loaded []byte
}

func (f *fakeSaver) StateKey() string            { return f.key }
func (f *fakeSaver) StateBytes() int             { return len(f.state) }
func (f *fakeSaver) AppendState(b []byte) []byte { return append(b, f.state...) }
func (f *fakeSaver) LoadState(b []byte) error    { f.loaded = b; return nil }

func TestEncodeSectionsLoadInto(t *testing.T) {
	a := &fakeSaver{key: "a", state: []byte("alpha")}
	b := &fakeSaver{key: "b", state: []byte("beta")}
	sections, err := DecodeSections(EncodeSections(a, nil, b))
	if err != nil {
		t.Fatal(err)
	}
	if len(sections) != 2 {
		t.Fatalf("sections = %v", sections)
	}
	got := &fakeSaver{key: "a"}
	ok, err := LoadInto(sections, got)
	if err != nil || !ok || string(got.loaded) != "alpha" {
		t.Fatalf("LoadInto(a) = %v, %v, loaded %q", ok, err, got.loaded)
	}
	ok, err = LoadInto(sections, &fakeSaver{key: "missing"})
	if err != nil || ok {
		t.Fatalf("missing section must be (false, nil), got (%v, %v)", ok, err)
	}
}

// TestRetentionFailureCounted: a delete that fails mid-sweep must not
// fail the checkpoint, but it must bump ckpt_retention_errors_total and
// keep the snapshot chain usable.
func TestRetentionFailureCounted(t *testing.T) {
	dir := t.TempDir()
	m, _ := NewManager(dir, 1)

	telemetry.SetEnabled(true)
	defer telemetry.SetEnabled(false)
	before := telemetry.Default().Metrics.Counter(telemetry.MetricCkptRetentionErrors).Value()

	// Fail every delete attempt via the test seam (the tests run as root,
	// so permission bits cannot force the failure).
	removeFile = func(string) error { return errors.New("disk says no") }
	defer func() { removeFile = os.Remove }()

	for s := 1; s <= 3; s++ {
		if _, err := m.Save(testSnap(s, s)); err != nil {
			t.Fatalf("save %d must not fail on retention errors: %v", s, err)
		}
	}
	after := telemetry.Default().Metrics.Counter(telemetry.MetricCkptRetentionErrors).Value()
	if after <= before {
		t.Fatalf("ckpt_retention_errors_total did not move (%d -> %d)", before, after)
	}
	// Nothing was actually deleted, and the chain still loads.
	paths, err := m.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 3 {
		t.Fatalf("have %d snapshots, want all 3 retained after failed deletes", len(paths))
	}
	snap, _, err := m.LoadLatest()
	if err != nil || snap.Step != 3 {
		t.Fatalf("LoadLatest = step %v err %v, want 3", snap, err)
	}
}

// TestLoadRefusesVersion1: a file of the gob-era format is refused with
// its version named, not misread.
func TestLoadRefusesVersion1(t *testing.T) {
	path := filepath.Join(t.TempDir(), fileName(1))
	if err := os.WriteFile(path, append([]byte("HYLOCKP1"), make([]byte, 40)...), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err == nil || !strings.Contains(err.Error(), "format version 1") {
		t.Fatalf("want a version-1 refusal, got %v", err)
	}
}

// TestEncodeMatchesSavedFile: Encode returns the bytes Save writes, and
// Decode reads them back.
func TestEncodeMatchesSavedFile(t *testing.T) {
	m, _ := NewManager(t.TempDir(), 3)
	snap := testSnap(3, 30)
	path, err := m.Save(snap)
	if err != nil {
		t.Fatal(err)
	}
	file, _ := os.ReadFile(path)
	if enc := Encode(snap); !bytes.Equal(enc, file) {
		t.Fatalf("Encode gives %d bytes, Save wrote %d different ones", len(enc), len(file))
	}
	back, err := Decode(file)
	if err != nil || back.Step != 30 || string(back.Ranks[0]) != "rank0" {
		t.Fatalf("Decode = %+v, %v", back, err)
	}
}

// FuzzSnapshotDecode: whatever payload sits behind a valid header and CRC,
// Decode returns an error or a snapshot that encodes back to the same
// bytes, and neither it nor parsing the sections it yields panics.
func FuzzSnapshotDecode(f *testing.F) {
	f.Add(Encode(testSnap(1, 2))[headerLen:])
	f.Add(Encode(&Snapshot{Trainer: EncodeSections(&fakeSaver{key: "k", state: []byte{1}})})[headerLen:])
	f.Add([]byte{})
	f.Add(make([]byte, 40))
	f.Fuzz(func(t *testing.T, payload []byte) {
		le := binary.LittleEndian
		b := le.AppendUint64(le.AppendUint32(append([]byte(nil), magic[:]...), crc32.Checksum(payload, crcTable)), uint64(len(payload)))
		snap, err := Decode(append(b, payload...))
		if err != nil {
			return
		}
		if got := Encode(snap); !bytes.Equal(got[headerLen:], payload) {
			t.Fatalf("decoded payload re-encodes differently")
		}
		for _, s := range append(snap.Ranks, snap.Trainer) {
			DecodeSections(s)
		}
	})
}
