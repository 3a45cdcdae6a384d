// Package cas is the disk-backed content-addressed store under the
// sweep fabric and the serve layer's result cache: immutable
// write-once blobs keyed by canonical content hashes
// (scenario.Spec.Hash / Sweep.Hash), each written atomically (tmp +
// fsync + rename) to blobs/<ns>/<hex[:2]>/<hex>.<sum>, a name that
// carries the checksum of the blob's own bytes.
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
// Crash consistency: a Put writes its blob file and nothing else, so
// its cost does not grow with the store; the rename is the whole
// commit. No file is ever modified in place, so a hard-linked copy of
// a store stays a copy. Open rebuilds the entries from a walk of the
// tree that reads no blob.
//
// Corruption is detected, not trusted: the sum in a blob's name is
// recorded at write time (keys address the *spec* that produced a
// blob, not the blob's own content, so the key can't verify it), and
// Get re-hashes every blob it reads against it. A mismatch — a torn
// write that survived the rename, bit rot, tampering, a damaged name —
// quarantines the blob under corrupt/ (counted by cas_quarantined) and
// reports a miss, so callers regenerate the content instead of
// propagating garbage. A blob removed behind the store's back is a
// miss too.
//
// Open migrates a store of the earlier format (plain <hex> blobs, sums
// in an index.json): each blob is renamed once to its checksum name,
// with the sum from the index or, for a blob the index does not list,
// from its bytes as found. The index goes once the last rename is
// durable, so a crash mid-migration finishes on the next Open.
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

// nsPattern keeps namespaces path-safe.
var nsPattern = regexp.MustCompile(`^[a-z][a-z0-9-]{0,31}$`)

// legacyIndex is the earlier format's index, relative to root; Open
// reads it only to migrate.
const legacyIndex = "index.json"

// Entry is one stored blob: its key, size and checksum.
type Entry struct {
	Namespace string `json:"namespace"`
	Hash      string `json:"hash"`
	Size      int64  `json:"size"`
	// Sum is the content address of the blob bytes, recorded at write
	// time and carried in the file name; Get verifies reads against it
	// (the key addresses the spec that produced the blob, not the blob).
	Sum string `json:"sum,omitempty"`
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
	if !isSum(hash) {
		return fmt.Errorf("cas: bad content hash %q (want sha256:<64 hex>)", hash)
	}
	return nil
}

// isSum reports whether s has the canonical content-address form,
// "sha256:<64 lowercase hex>", of scenario.Spec.Hash, Sweep.Hash and
// HashOf.
func isSum(s string) bool {
	hex, ok := strings.CutPrefix(s, "sha256:")
	return ok && len(hex) == 64 && strings.Trim(hex, "0123456789abcdef") == ""
}

// blobPath is root/blobs/<ns>/<hex[:2]>/<hex>.<sum hex> — the
// two-character fan keeps directories small at fleet scale.
func (s *Store) blobPath(ns, hash, sum string) string {
	hex := strings.TrimPrefix(hash, "sha256:")
	return filepath.Join(s.root, "blobs", ns, hex[:2], hex+"."+strings.TrimPrefix(sum, "sha256:"))
}

// Open creates (or reopens) a store rooted at dir, rebuilding the
// entries from the blob tree and migrating a store of the earlier
// format.
func Open(dir string) (*Store, error) {
	s := &Store{root: dir, entries: make(map[string]Entry)}
	for _, sub := range []string{"blobs", "tmp"} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, fmt.Errorf("cas: creating %s: %w", sub, err)
		}
	}
	// Stale temp files are crash debris — blobs that died before their
	// rename. Never adopted, they would accumulate forever; clear them.
	if ents, err := os.ReadDir(filepath.Join(dir, "tmp")); err == nil {
		for _, de := range ents {
			_ = os.Remove(filepath.Join(dir, "tmp", de.Name()))
		}
	}
	if err := s.scan(); err != nil {
		return nil, fmt.Errorf("cas: opening %s: %w", dir, err)
	}
	return s, nil
}

// scan walks the blob tree into the entry map, reading no blob. A file
// is a blob only at blobs/<ns>/<hex[:2]>/<hex>.<sum> under a valid key;
// anything else is a stray and is ignored, except a plain <hex> blob of
// the earlier format, which is migrated. Two checksum names for one key
// can only come from damage: the first in name order is kept, the rest
// go under corrupt/.
func (s *Store) scan() error {
	var plain []Entry
	blobRoot := filepath.Join(s.root, "blobs")
	err := filepath.WalkDir(blobRoot, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		parts := strings.Split(filepath.ToSlash(path[len(blobRoot)+1:]), "/")
		if len(parts) != 3 {
			return nil
		}
		ns, fan := parts[0], parts[1]
		name, sum, named := strings.Cut(parts[2], ".")
		// A substring of path would keep the whole path alive per entry.
		e := Entry{Namespace: strings.Clone(ns), Hash: "sha256:" + name, Sum: "sha256:" + sum}
		if validate(ns, e.Hash) != nil || name[:2] != fan || named && !isSum(e.Sum) {
			return nil
		}
		info, err := d.Info()
		if errors.Is(err, fs.ErrNotExist) {
			return nil // quarantined by another process's Get
		} else if err != nil {
			return err
		}
		e.Size = info.Size()
		switch _, dup := s.entries[key(ns, e.Hash)]; {
		case !named:
			plain = append(plain, e)
		case dup:
			s.evict(path, ns+"-"+parts[2])
		default:
			s.add(e)
		}
		return nil
	})
	if err != nil {
		return err
	}
	return s.migrate(plain)
}

// migrate renames each plain blob once to its checksum name, with the
// sum from the earlier format's index (an index that is not JSON lists
// nothing) or else from the bytes as found, the best available
// statement of intent. A plain blob whose key already has a
// checksum-named file is a duplicate and is removed. The index goes
// once every rename is durable.
func (s *Store) migrate(plain []Entry) error {
	index := filepath.Join(s.root, legacyIndex)
	var doc struct{ Entries []Entry }
	if len(plain) > 0 {
		b, err := os.ReadFile(index)
		if err != nil && !errors.Is(err, fs.ErrNotExist) {
			return err
		}
		_ = json.Unmarshal(b, &doc)
	}
	sums := make(map[string]string, len(doc.Entries))
	for _, e := range doc.Entries {
		if isSum(e.Sum) {
			sums[key(e.Namespace, e.Hash)] = e.Sum
		}
	}
	synced := map[string]bool{}
	for _, e := range plain {
		hex := strings.TrimPrefix(e.Hash, "sha256:")
		path := filepath.Join(s.root, "blobs", e.Namespace, hex[:2], hex)
		if _, dup := s.entries[key(e.Namespace, e.Hash)]; dup {
			if err := os.Remove(path); err != nil && !errors.Is(err, fs.ErrNotExist) {
				return err
			}
			continue
		}
		if e.Sum = sums[key(e.Namespace, e.Hash)]; e.Sum == "" {
			b, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			e.Sum = HashOf(b)
		}
		if err := os.Rename(path, s.blobPath(e.Namespace, e.Hash, e.Sum)); err != nil {
			return err
		}
		synced[filepath.Dir(path)] = true
		s.add(e)
	}
	for dir := range synced {
		syncDir(dir)
	}
	switch err := os.Remove(index); {
	case err == nil:
		syncDir(s.root)
	case !errors.Is(err, fs.ErrNotExist):
		return err
	}
	return nil
}

func (s *Store) add(e Entry) {
	s.entries[key(e.Namespace, e.Hash)] = e
	s.bytes += e.Size
}

// Put stores blob under (ns, hash), write-once: an existing key is a
// counted no-op — content addressing makes the duplicate bytes
// identical by construction, which is what makes fabric shard
// completion idempotent. The blob is fsync'd before the atomic rename
// to its checksum name, and the rename is fsync'd after.
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
	// bit flip lands on disk under a mismatched name — exactly the
	// state a real torn write leaves — and Get's verification catches
	// it.
	sum := HashOf(blob)
	if s.putFault != nil {
		blob = s.putFault(ns, hash, blob)
	}
	path := s.blobPath(ns, hash, sum)
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
	s.add(Entry{Namespace: ns, Hash: hash, Size: int64(len(blob)), Sum: sum})
	s.puts++
	return nil
}

// HashOf returns the canonical content address of blob — the checksum
// Put names a blob file with and Get verifies reads against.
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
// presence; disk errors other than a missing file surface as errors.
// Blob bytes are re-hashed against the checksum recorded at write time
// on every read: a mismatch — torn write, bit rot, external tampering —
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
	s.mu.Unlock()
	path := s.blobPath(ns, hash, e.Sum)
	b, err := os.ReadFile(path)
	switch {
	case errors.Is(err, fs.ErrNotExist):
		// Removed behind the store's back (by an operator, or another
		// process's quarantine): a miss, and the next Put stores it again.
		s.drop(ns, hash, "")
		return nil, false, nil
	case err != nil:
		return nil, false, fmt.Errorf("cas: reading blob %s: %w", key(ns, hash), err)
	case HashOf(b) != e.Sum:
		s.drop(ns, hash, path)
		return nil, false, nil
	}
	s.mu.Lock()
	s.hits++
	s.mu.Unlock()
	return b, true, nil
}

// drop forgets a key Get could not serve, so its content can be
// regenerated and stored again, and counts the miss. A corrupt blob, at
// a non-empty path, is quarantined: evicted and counted.
func (s *Store) drop(ns, hash, corrupt string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.misses++
	e, ok := s.entries[key(ns, hash)]
	if !ok { // a concurrent Get already dropped it
		return
	}
	if corrupt != "" {
		s.evict(corrupt, ns+"-"+strings.TrimPrefix(hash, "sha256:"))
		s.quarantined++
	}
	delete(s.entries, key(ns, hash))
	s.bytes -= e.Size
}

// evict moves a blob file to root/corrupt/<name>, kept for
// post-mortems. Where the move fails (crossed filesystems,
// permissions), removal still takes the file out of service.
func (s *Store) evict(path, name string) {
	dst := filepath.Join(s.root, "corrupt", name)
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil || os.Rename(path, dst) != nil {
		_ = os.Remove(path)
	}
}

// Len returns the number of stored blobs.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// Entries returns a snapshot of the stored blobs, sorted by key for
// determinism.
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

// syncDir fsyncs a directory so renames into it are durable;
// best-effort (some filesystems reject directory fsync).
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		_ = d.Close()
	}
}
