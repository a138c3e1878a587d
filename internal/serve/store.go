package serve

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// Store is the content-addressed on-disk result store. Every job is keyed
// by the sha256 of its canonical plan document (envelope bytes plus the
// run parameters; see Server hashing), under dir/<hh>/<hash>/:
//
//	plan.json       the hashed document, so the store is self-describing
//	spec-NNN.json   one durable SpecResult per finished campaign spec
//	result.json     the final Result, present only for completed jobs
//
// Per-spec files are the checkpoint granularity: a cancelled or drained
// job resumed with the same plan skips every spec that already has one,
// and the final aggregate is rebuilt from the stored tallies, byte-
// identical to an uninterrupted run. All writes are atomic (temp file +
// rename), so a crash mid-write never leaves a torn checkpoint.
type Store struct {
	dir string
}

// NewStore opens (creating if needed) a result store rooted at dir.
func NewStore(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("serve: result store needs a directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: result store: %w", err)
	}
	return &Store{dir: dir}, nil
}

// jobDir is the directory of one content hash, sharded by the first byte
// so a long-lived store never piles every job into one directory.
func (st *Store) jobDir(hash string) string {
	return filepath.Join(st.dir, hash[:2], hash)
}

// writeAtomic writes data via a temp file in the destination directory
// plus rename, so readers never observe a partial file.
func (st *Store) writeAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("serve: store write: %w", err)
	}
	tmp, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return fmt.Errorf("serve: store write: %w", err)
	}
	_, werr := tmp.Write(data)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		_ = os.Remove(tmp.Name())
		if werr != nil {
			return fmt.Errorf("serve: store write: %w", werr)
		}
		return fmt.Errorf("serve: store write: %w", cerr)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		_ = os.Remove(tmp.Name())
		return fmt.Errorf("serve: store write: %w", err)
	}
	return nil
}

// PutPlan persists the hashed plan document once; later identical
// submissions leave the existing file untouched.
func (st *Store) PutPlan(hash string, doc []byte) error {
	path := filepath.Join(st.jobDir(hash), "plan.json")
	if _, err := os.Stat(path); err == nil {
		return nil
	}
	return st.writeAtomic(path, doc)
}

func specFile(index int) string { return fmt.Sprintf("spec-%03d.json", index) }

// PutSpec checkpoints one finished spec.
func (st *Store) PutSpec(hash string, index int, sr SpecResult) error {
	data, err := json.MarshalIndent(sr, "", "  ")
	if err != nil {
		return fmt.Errorf("serve: encode spec %d: %w", index, err)
	}
	return st.writeAtomic(filepath.Join(st.jobDir(hash), specFile(index)), append(data, '\n'))
}

// Spec loads spec index's checkpoint, reporting whether one exists. A
// torn or unreadable file reads as absent — the spec just re-runs.
func (st *Store) Spec(hash string, index int) (SpecResult, bool) {
	data, err := os.ReadFile(filepath.Join(st.jobDir(hash), specFile(index)))
	if err != nil {
		return SpecResult{}, false
	}
	var sr SpecResult
	if err := json.Unmarshal(data, &sr); err != nil {
		return SpecResult{}, false
	}
	return sr, true
}

// PutResult persists the job's final result document.
func (st *Store) PutResult(hash string, doc []byte) error {
	return st.writeAtomic(filepath.Join(st.jobDir(hash), "result.json"), doc)
}

// Result returns the final result document, reporting whether one exists.
func (st *Store) Result(hash string) ([]byte, bool) {
	data, err := os.ReadFile(filepath.Join(st.jobDir(hash), "result.json"))
	if err != nil {
		return nil, false
	}
	return data, true
}
