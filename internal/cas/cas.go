// Package cas is the disk-backed content-addressed store under the
// sweep fabric and the serve layer's result cache: immutable
// write-once blobs keyed by canonical content hashes
// (scenario.Spec.Hash / Sweep.Hash), written atomically (tmp + fsync +
// rename) with an fsync'd index recording each blob's size and
// checksum.
//
// Keys are (namespace, hash) pairs: the hash is the scenario layer's
// "sha256:<hex>" content address, the namespace separates value
// schemas stored under the same spec hash (a rendered single-spec
// table under "run" versus a grid-point row under "point"). Blobs are
// write-once by construction — a Put on an existing key verifies
// nothing and changes nothing, because equal content hash means equal
// bytes everywhere in this codebase (the engine is deterministic and
// every hash is computed over the canonical normalized form).
//
// Crash consistency: the blob file is the source of truth. Put fsyncs
// the blob before renaming it into place and rewrites the index
// afterwards; Open adopts any blob present on disk but missing from
// the index (a crash between the two writes), and drops index entries
// whose blob has vanished. A store directory can therefore be copied,
// restarted into, or rebuilt from blobs alone.
//
// Corruption is detected, not trusted: the index records a checksum of
// the blob bytes at write time (keys themselves address the *spec* that
// produced a blob, not the blob's own content, so the key can't verify
// it), and Get re-hashes every blob it reads against that record. A
// mismatch — a torn write that survived the rename, bit rot,
// tampering — quarantines the blob under corrupt/ and reports a miss,
// so callers regenerate the content instead of propagating garbage.
// The cas_quarantined counter tracks these events.
package cas

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
)

// hashPattern is the canonical content-address form produced by
// scenario.Spec.Hash and Sweep.Hash.
var hashPattern = regexp.MustCompile(`^sha256:[0-9a-f]{64}$`)

// nsPattern keeps namespaces path-safe.
var nsPattern = regexp.MustCompile(`^[a-z][a-z0-9-]{0,31}$`)

// indexFile is the store's fsync'd metadata file, relative to root.
const indexFile = "index.json"

// Entry is one indexed blob: its key, size and checksum.
type Entry struct {
	Namespace string `json:"namespace"`
	Hash      string `json:"hash"`
	Size      int64  `json:"size"`
	// Sum is the content address of the blob bytes themselves, recorded
	// when the blob was written (the key's hash addresses the spec that
	// produced the blob, so it cannot verify the blob). Get re-hashes
	// reads against it.
	Sum string `json:"sum,omitempty"`
}

// indexDoc is the on-disk index form.
type indexDoc struct {
	Entries []Entry `json:"entries"`
}

// Stats is the counter snapshot surfaced through /metrics.
type Stats struct {
	Entries     int64 `json:"cas_entries"`
	Bytes       int64 `json:"cas_bytes"`
	Puts        int64 `json:"cas_puts"`
	DupPuts     int64 `json:"cas_dup_puts"`
	Hits        int64 `json:"cas_hits"`
	Misses      int64 `json:"cas_misses"`
	Quarantined int64 `json:"cas_quarantined"`
}

// Store is a disk-backed content-addressed blob store. All methods are
// safe for concurrent use.
type Store struct {
	mu      sync.Mutex
	root    string
	entries map[string]Entry // key() → entry
	bytes   int64
	// putFault, when non-nil, rewrites the bytes Put actually writes —
	// the fault-injection seam chaos tests use to simulate torn writes
	// and bit flips at the storage layer. Production code leaves it nil.
	putFault func(ns, hash string, blob []byte) []byte

	puts, dupPuts, hits, misses, quarantined int64
}

func key(ns, hash string) string { return ns + "/" + hash }

func validate(ns, hash string) error {
	if !nsPattern.MatchString(ns) {
		return fmt.Errorf("cas: bad namespace %q", ns)
	}
	if !hashPattern.MatchString(hash) {
		return fmt.Errorf("cas: bad content hash %q (want sha256:<64 hex>)", hash)
	}
	return nil
}

// blobPath is root/blobs/<ns>/<hex[:2]>/<hex> — the two-character fan
// keeps directories small at fleet scale.
func (s *Store) blobPath(ns, hash string) string {
	hex := strings.TrimPrefix(hash, "sha256:")
	return filepath.Join(s.root, "blobs", ns, hex[:2], hex)
}

// Open creates (or reopens) a store rooted at dir. The index is
// reconciled against the blobs actually on disk: unindexed blobs are
// adopted, dangling index entries dropped.
func Open(dir string) (*Store, error) {
	s := &Store{root: dir, entries: make(map[string]Entry)}
	for _, sub := range []string{"blobs", "tmp"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("cas: creating %s: %w", sub, err)
		}
	}
	// Stale temp files are crash debris — a tmp blob or index that died
	// before its rename. They are invisible to the store (never adopted
	// as blobs) but would accumulate forever; clear them on open.
	if ents, err := os.ReadDir(filepath.Join(dir, "tmp")); err == nil {
		for _, de := range ents {
			_ = os.Remove(filepath.Join(dir, "tmp", de.Name()))
		}
	}
	if b, err := os.ReadFile(filepath.Join(dir, indexFile)); err == nil {
		var doc indexDoc
		if err := json.Unmarshal(b, &doc); err == nil {
			for _, e := range doc.Entries {
				if validate(e.Namespace, e.Hash) != nil {
					continue
				}
				s.entries[key(e.Namespace, e.Hash)] = e
			}
		}
		// A corrupt index is not an error: the scan below rebuilds it
		// from the blobs, which are the source of truth.
	} else if !errors.Is(err, os.ErrNotExist) {
		return nil, fmt.Errorf("cas: reading index: %w", err)
	}
	if err := s.reconcile(); err != nil {
		return nil, err
	}
	if err := s.writeIndexLocked(); err != nil {
		return nil, err
	}
	return s, nil
}

// reconcile walks the blob tree adopting unindexed blobs and drops
// index entries whose blob file is gone. Called from Open only.
func (s *Store) reconcile() error {
	onDisk := make(map[string]int64)
	blobRoot := filepath.Join(s.root, "blobs")
	err := filepath.WalkDir(blobRoot, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		rel, err := filepath.Rel(blobRoot, path)
		if err != nil {
			return err
		}
		parts := strings.Split(filepath.ToSlash(rel), "/")
		if len(parts) != 3 {
			return nil // stray file, ignore
		}
		ns, hash := parts[0], "sha256:"+parts[2]
		if validate(ns, hash) != nil {
			return nil
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		onDisk[key(ns, hash)] = info.Size()
		if _, ok := s.entries[key(ns, hash)]; !ok {
			// An adopted blob has no write-time checksum record; hash
			// what's on disk so later corruption is still caught (the
			// bytes as found are the best available statement of
			// intent).
			s.entries[key(ns, hash)] = Entry{Namespace: ns, Hash: hash, Size: info.Size(), Sum: sumOfFile(path)}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("cas: scanning blobs: %w", err)
	}
	s.bytes = 0
	for k, e := range s.entries {
		size, ok := onDisk[k]
		if !ok {
			delete(s.entries, k)
			continue
		}
		e.Size = size
		if e.Sum == "" {
			// Index written before checksums existed: backfill from
			// the blob so verification covers it from here on.
			e.Sum = sumOfFile(s.blobPath(e.Namespace, e.Hash))
		}
		s.entries[k] = e
		s.bytes += size
	}
	return nil
}

// sumOfFile hashes the blob bytes on disk; "" on a read error, which
// leaves the entry unverified rather than failing Open.
func sumOfFile(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	return HashOf(b)
}

// Put stores blob under (ns, hash), write-once: an existing key is a
// counted no-op — content addressing makes the duplicate bytes
// identical by construction, which is what makes fabric shard
// completion idempotent. The blob is fsync'd before the atomic rename
// and the index is rewritten (and fsync'd) afterwards.
func (s *Store) Put(ns, hash string, blob []byte) error {
	if err := validate(ns, hash); err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.entries[key(ns, hash)]; ok {
		s.dupPuts++
		return nil
	}
	// The checksum records the caller's intent: it is computed before
	// the fault hook rewrites the bytes, so an injected torn write or
	// bit flip lands on disk with a mismatched record — exactly the
	// state a real torn write leaves — and Get's verification catches
	// it.
	sum := HashOf(blob)
	if s.putFault != nil {
		blob = s.putFault(ns, hash, blob)
	}
	path := s.blobPath(ns, hash)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("cas: blob dir: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Join(s.root, "tmp"), "blob-*")
	if err != nil {
		return fmt.Errorf("cas: temp blob: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(blob); err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); cerr != nil && err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmpName, path)
	}
	if err != nil {
		_ = os.Remove(tmpName)
		return fmt.Errorf("cas: writing blob %s: %w", key(ns, hash), err)
	}
	syncDir(filepath.Dir(path))
	e := Entry{Namespace: ns, Hash: hash, Size: int64(len(blob)), Sum: sum}
	s.entries[key(ns, hash)] = e
	s.bytes += e.Size
	s.puts++
	return s.writeIndexLocked()
}

// HashOf returns the canonical content address of blob — the checksum
// Put records in the index and Get verifies reads against.
func HashOf(blob []byte) string {
	sum := sha256.Sum256(blob)
	return "sha256:" + hex.EncodeToString(sum[:])
}

// SetPutFault installs (or, with nil, clears) the write fault-injection
// hook: every subsequent Put writes f's return value instead of the
// original bytes. It exists so chaos tests can simulate torn writes
// (truncation before the rename) and bit flips without reaching around
// the store; Get's content verification is what turns those corrupted
// blobs back into misses.
func (s *Store) SetPutFault(f func(ns, hash string, blob []byte) []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.putFault = f
}

// Get returns the blob stored under (ns, hash). The bool reports
// presence; disk errors on an indexed blob surface as errors. Blob
// bytes are re-hashed against the checksum recorded at write time on
// every read: a mismatch — torn write, bit rot, external tampering —
// quarantines the blob under corrupt/ and reports a miss, so the
// caller re-executes the work instead of trusting corrupted state.
func (s *Store) Get(ns, hash string) ([]byte, bool, error) {
	if err := validate(ns, hash); err != nil {
		return nil, false, err
	}
	s.mu.Lock()
	e, ok := s.entries[key(ns, hash)]
	if !ok {
		s.misses++
		s.mu.Unlock()
		return nil, false, nil
	}
	path := s.blobPath(ns, hash)
	s.mu.Unlock()
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, false, fmt.Errorf("cas: reading blob %s: %w", key(ns, hash), err)
	}
	if e.Sum != "" && HashOf(b) != e.Sum {
		s.quarantine(ns, hash, path)
		return nil, false, nil
	}
	s.mu.Lock()
	s.hits++
	s.mu.Unlock()
	return b, true, nil
}

// quarantine moves a corrupt blob out of the tree (root/corrupt/, kept
// for post-mortems), drops its index entry, and counts the event. The
// key becomes a miss, so content under it can be regenerated and
// stored again.
func (s *Store) quarantine(ns, hash, path string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[key(ns, hash)]
	if !ok {
		// A concurrent Get already quarantined it.
		return
	}
	dst := filepath.Join(s.root, "corrupt", ns+"-"+strings.TrimPrefix(hash, "sha256:"))
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil || os.Rename(path, dst) != nil {
		// Rename failed (crossed filesystems, permissions): removal
		// still restores the miss invariant, just without the corpse.
		_ = os.Remove(path)
	}
	delete(s.entries, key(ns, hash))
	s.bytes -= e.Size
	s.quarantined++
	s.misses++
	_ = s.writeIndexLocked()
}

// Len returns the number of stored blobs.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// Entries returns the index snapshot, sorted by key for determinism.
func (s *Store) Entries() []Entry {
	s.mu.Lock()
	out := make([]Entry, 0, len(s.entries))
	for _, e := range s.entries {
		out = append(out, e)
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		return key(out[i].Namespace, out[i].Hash) < key(out[j].Namespace, out[j].Hash)
	})
	return out
}

// Stats returns the counter snapshot.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Entries:     int64(len(s.entries)),
		Bytes:       s.bytes,
		Puts:        s.puts,
		DupPuts:     s.dupPuts,
		Hits:        s.hits,
		Misses:      s.misses,
		Quarantined: s.quarantined,
	}
}

// writeIndexLocked persists the index atomically (tmp + fsync +
// rename). Callers hold s.mu.
func (s *Store) writeIndexLocked() error {
	doc := indexDoc{Entries: make([]Entry, 0, len(s.entries))}
	for _, e := range s.entries {
		doc.Entries = append(doc.Entries, e)
	}
	sort.Slice(doc.Entries, func(i, j int) bool {
		return key(doc.Entries[i].Namespace, doc.Entries[i].Hash) < key(doc.Entries[j].Namespace, doc.Entries[j].Hash)
	})
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return fmt.Errorf("cas: encoding index: %w", err)
	}
	tmp, err := os.CreateTemp(filepath.Join(s.root, "tmp"), "index-*")
	if err != nil {
		return fmt.Errorf("cas: temp index: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(b); err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); cerr != nil && err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmpName, filepath.Join(s.root, indexFile))
	}
	if err != nil {
		_ = os.Remove(tmpName)
		return fmt.Errorf("cas: writing index: %w", err)
	}
	syncDir(s.root)
	return nil
}

// syncDir fsyncs a directory so renames into it are durable;
// best-effort (some filesystems reject directory fsync).
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
}
