package runner

// On-disk durability for the job registry. Each job's artifact directory
// carries two records:
//
//	job.json      — the immutable submission record (ID, normalized spec,
//	                priority, creation time, artifact paths), written once
//	                at submit with the same atomic-rename discipline as
//	                internal/ckpt snapshots.
//	state.journal — an append-only journal of lifecycle events (queued,
//	                started, preempted, finished, recovery decisions),
//	                one CRC-framed line per event.
//
// Both use the same line framing: `%08x <json>\n`, where the hex prefix
// is the CRC32-Castagnoli of the JSON payload (the checksum polynomial
// internal/ckpt uses). A torn append — the daemon SIGKILLed mid-write —
// produces a trailing line that fails the CRC or has no terminator;
// replay keeps every intact record before the damage and discards the
// rest, which is exactly the prefix-durability a crash permits. job.json
// is a single framed line, so a corrupt record is detected (and the job
// skipped, not half-loaded) rather than trusted.

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"time"

	"repro/internal/serve/api"
)

// Journal and record file names inside each job's artifact directory.
const (
	jobRecordFile = "job.json"
	journalFile   = "state.journal"
)

var persistCRC = crc32.MakeTable(crc32.Castagnoli)

// jobRecord is the immutable per-job submission record.
type jobRecord struct {
	ID        string        `json:"id"`
	Spec      api.JobSpec   `json:"spec"`
	Priority  int           `json:"priority"`
	CreatedAt time.Time     `json:"created_at"`
	Artifacts api.Artifacts `json:"artifacts"`
}

// journalEntry is one append-only lifecycle event. State is the job's
// state AFTER the event; replaying the journal and keeping the last
// entry's state reconstructs the FSM position at crash time.
type journalEntry struct {
	TS    time.Time `json:"ts"`
	State api.State `json:"state"`
	Event string    `json:"event,omitempty"`
	Error string    `json:"error,omitempty"`
	// Provenance records recovery decisions (fresh/resumed/recovered_restart).
	Provenance string `json:"provenance,omitempty"`
	// Resume marks that the job's next dispatch must load the latest
	// checkpoint (set by preemption and restart recovery).
	Resume bool `json:"resume,omitempty"`
}

// encodeCRCLine frames one JSON payload as a checksummed journal line.
func encodeCRCLine(payload []byte) []byte {
	out := make([]byte, 0, len(payload)+10)
	var crc [4]byte
	sum := crc32.Checksum(payload, persistCRC)
	crc[0], crc[1], crc[2], crc[3] = byte(sum>>24), byte(sum>>16), byte(sum>>8), byte(sum)
	out = append(out, []byte(hex.EncodeToString(crc[:]))...)
	out = append(out, ' ')
	out = append(out, payload...)
	out = append(out, '\n')
	return out
}

// decodeCRCLine validates one framed line (without its trailing newline)
// and returns the JSON payload.
func decodeCRCLine(line []byte) ([]byte, error) {
	if len(line) < 10 || line[8] != ' ' {
		return nil, fmt.Errorf("runner: journal line too short or misframed (%d bytes)", len(line))
	}
	crcBytes, err := hex.DecodeString(string(line[:8]))
	if err != nil {
		return nil, fmt.Errorf("runner: journal line checksum not hex: %v", err)
	}
	want := uint32(crcBytes[0])<<24 | uint32(crcBytes[1])<<16 | uint32(crcBytes[2])<<8 | uint32(crcBytes[3])
	payload := line[9:]
	if got := crc32.Checksum(payload, persistCRC); got != want {
		return nil, fmt.Errorf("runner: journal line checksum mismatch (%08x != %08x)", got, want)
	}
	return payload, nil
}

// writeFileAtomic publishes data at path so that a reader can never
// observe a torn file and the bytes survive a crash the instant it
// returns: staged in a temp file in the same directory, synced, and
// renamed into place.
func writeFileAtomic(path string, data []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".tmp-"+filepath.Base(path)+"-*")
	if err != nil {
		return fmt.Errorf("runner: stage %s: %w", path, err)
	}
	tmpName := tmp.Name()
	_, err = tmp.Write(data)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmpName, path)
	}
	if err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("runner: publish %s: %w", path, err)
	}
	return nil
}

// writeJobRecord persists the submission record as one checksummed line,
// atomically.
func writeJobRecord(dir string, rec jobRecord) error {
	payload, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("runner: encode job record: %w", err)
	}
	return writeFileAtomic(filepath.Join(dir, jobRecordFile), encodeCRCLine(payload))
}

// readJobRecord loads and verifies a job.json. Any framing, checksum, or
// decode failure is reported as corruption; the caller skips the job.
func readJobRecord(dir string) (jobRecord, error) {
	var rec jobRecord
	b, err := os.ReadFile(filepath.Join(dir, jobRecordFile))
	if err != nil {
		return rec, err
	}
	b = bytes.TrimRight(b, "\n")
	payload, err := decodeCRCLine(b)
	if err != nil {
		return rec, err
	}
	if err := json.Unmarshal(payload, &rec); err != nil {
		return rec, fmt.Errorf("runner: decode job record: %w", err)
	}
	if rec.ID == "" {
		return rec, fmt.Errorf("runner: job record missing id")
	}
	return rec, nil
}

// decodeJournal replays journal bytes: every intact framed line decodes
// into an entry; the first damaged line (torn tail, flipped bit, missing
// terminator) stops replay and everything after it is discarded. damaged
// reports whether anything was dropped. The decoder never panics on
// arbitrary input — FuzzJournalDecode holds it to that.
func decodeJournal(b []byte) (entries []journalEntry, damaged bool) {
	for len(b) > 0 {
		nl := bytes.IndexByte(b, '\n')
		if nl < 0 {
			// No terminator: a torn final append.
			return entries, true
		}
		line := b[:nl]
		b = b[nl+1:]
		payload, err := decodeCRCLine(line)
		if err != nil {
			return entries, true
		}
		var e journalEntry
		if err := json.Unmarshal(payload, &e); err != nil {
			return entries, true
		}
		entries = append(entries, e)
	}
	return entries, false
}

// readJournal loads and replays a job's state journal. A missing journal
// yields no entries and no error (the job never left queued, or predates
// the durable registry).
func readJournal(dir string) (entries []journalEntry, damaged bool, err error) {
	b, err := os.ReadFile(filepath.Join(dir, journalFile))
	if err != nil {
		if os.IsNotExist(err) {
			return nil, false, nil
		}
		return nil, false, err
	}
	entries, damaged = decodeJournal(b)
	return entries, damaged, nil
}

// appendJournalLocked appends one event to the job's state journal,
// opening the file lazily. The write is synced so the record survives the
// very next instruction being SIGKILL. Journal loss must never fail the
// job (same policy as telemetry); decode-side CRCs catch what a failed
// write leaves behind.
func (j *Job) appendJournalLocked(e journalEntry) {
	if j.arts.Dir == "" {
		return
	}
	if j.journal == nil {
		f, err := os.OpenFile(filepath.Join(j.arts.Dir, journalFile),
			os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return
		}
		j.journal = f
	}
	e.TS = time.Now()
	payload, err := json.Marshal(e)
	if err != nil {
		return
	}
	if _, err := j.journal.Write(encodeCRCLine(payload)); err != nil {
		return
	}
	j.journal.Sync()
}
