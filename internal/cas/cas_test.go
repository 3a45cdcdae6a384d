package cas

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
)

// h derives a syntactically valid content hash from a label. Keys
// address the spec that produced a blob, not the blob's bytes — the
// store verifies reads against the checksum recorded at write time,
// never against the key — so tests can use arbitrary labels.
func h(label string) string {
	sum := sha256.Sum256([]byte(label))
	return fmt.Sprintf("sha256:%x", sum)
}

func TestPutGetRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	blob := []byte(`{"row":["1","2"]}`)
	if err := s.Put("point", h("a"), blob); err != nil {
		t.Fatal(err)
	}
	got, ok, err := s.Get("point", h("a"))
	if err != nil || !ok {
		t.Fatalf("Get: ok=%v err=%v", ok, err)
	}
	if !bytes.Equal(got, blob) {
		t.Fatalf("Get returned %q, want %q", got, blob)
	}
	if _, ok, _ := s.Get("point", h("missing")); ok {
		t.Error("Get found a never-stored key")
	}
	if _, ok, _ := s.Get("run", h("a")); ok {
		t.Error("namespaces leaked: run/<hash> found after storing point/<hash>")
	}
	st := s.Stats()
	if st.Entries != 1 || st.Puts != 1 || st.Hits != 1 || st.Misses != 2 {
		t.Errorf("stats = %+v", st)
	}
}

func TestPutIsWriteOnceIdempotent(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("point", h("a"), []byte("first")); err != nil {
		t.Fatal(err)
	}
	// A second put under the same content address is a no-op: content
	// addressing guarantees the bytes are the same, so nothing is
	// rewritten (idempotent shard completion relies on this).
	if err := s.Put("point", h("a"), []byte("first")); err != nil {
		t.Fatal(err)
	}
	got, _, err := s.Get("point", h("a"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "first" {
		t.Fatalf("blob changed to %q after duplicate put", got)
	}
	if st := s.Stats(); st.DupPuts != 1 || st.Puts != 1 || st.Entries != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestBadKeysRejected(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ ns, hash string }{
		{"point", "sha256:short"},
		{"point", "md5:" + strings.Repeat("ab", 32)},
		{"../escape", h("a")},
		{"UPPER", h("a")},
		{"", h("a")},
	} {
		if err := s.Put(tc.ns, tc.hash, []byte("x")); err == nil {
			t.Errorf("Put(%q, %q) accepted a bad key", tc.ns, tc.hash)
		}
	}
}

// TestReopenServesBlobs is the persistence half of the acceptance
// criterion: a store reopened from disk serves every blob without
// re-execution.
func TestReopenServesBlobs(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := s.Put("point", h(fmt.Sprint(i)), []byte(fmt.Sprintf("blob-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Len() != 20 {
		t.Fatalf("reopened store has %d entries, want 20", s2.Len())
	}
	for i := 0; i < 20; i++ {
		got, ok, err := s2.Get("point", h(fmt.Sprint(i)))
		if err != nil || !ok {
			t.Fatalf("blob %d after reopen: ok=%v err=%v", i, ok, err)
		}
		if want := fmt.Sprintf("blob-%d", i); string(got) != want {
			t.Fatalf("blob %d = %q, want %q", i, got, want)
		}
	}
}

// TestOpenAdoptsUnindexedBlobs: a plain blob that no index lists — an
// earlier-format store that crashed between the blob rename and its
// index rewrite — is the truth and must be adopted.
func TestOpenAdoptsUnindexedBlobs(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("point", h("indexed"), []byte("kept")); err != nil {
		t.Fatal(err)
	}
	// Plant a plain blob of the earlier format that no index lists.
	orphan := h("orphan")
	hex := strings.TrimPrefix(orphan, "sha256:")
	path := filepath.Join(dir, "blobs", "point", hex[:2], hex)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte("adopted"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, ok, err := s2.Get("point", orphan)
	if err != nil || !ok {
		t.Fatalf("orphan blob not adopted: ok=%v err=%v", ok, err)
	}
	if string(got) != "adopted" {
		t.Fatalf("orphan blob = %q", got)
	}
	if s2.Len() != 2 {
		t.Fatalf("store has %d entries, want 2", s2.Len())
	}
}

// TestOpenSurvivesCorruptIndex: an earlier-format index is only a
// source of sums for plain blobs, so garbage in it must not fail Open
// or lose blobs.
func TestOpenSurvivesCorruptIndex(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("point", h("a"), []byte("survives")); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, legacyIndex), []byte(`{"entries": [{"trunc`), 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("Open with corrupt index: %v", err)
	}
	got, ok, err := s2.Get("point", h("a"))
	if err != nil || !ok || string(got) != "survives" {
		t.Fatalf("blob lost behind corrupt index: %q ok=%v err=%v", got, ok, err)
	}
}

// blobFile is the on-disk path Put renames blob into under (ns, hash),
// mirrored here so tests can corrupt state behind the store's back.
func blobFile(dir, ns, hash string, blob []byte) string {
	return plainFile(dir, ns, hash) + "." + strings.TrimPrefix(HashOf(blob), "sha256:")
}

// plainFile is where the earlier store format kept a blob: no checksum
// in the name.
func plainFile(dir, ns, hash string) string {
	hex := strings.TrimPrefix(hash, "sha256:")
	return filepath.Join(dir, "blobs", ns, hex[:2], hex)
}

// TestGetQuarantinesCorruptBlob: bit rot (or tampering) under an
// indexed key must read as a miss, move the corpse to corrupt/, and
// leave the key writable again so the content can be regenerated.
func TestGetQuarantinesCorruptBlob(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	blob := []byte("intended content")
	if err := s.Put("point", h("victim"), blob); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(blobFile(dir, "point", h("victim"), blob), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	got, ok, err := s.Get("point", h("victim"))
	if err != nil || ok {
		t.Fatalf("corrupt blob served: %q ok=%v err=%v", got, ok, err)
	}
	corpse := filepath.Join(dir, "corrupt", "point-"+strings.TrimPrefix(h("victim"), "sha256:"))
	if b, err := os.ReadFile(corpse); err != nil || string(b) != "garbage" {
		t.Fatalf("corpse not preserved under corrupt/: %q err=%v", b, err)
	}
	if st := s.Stats(); st.Quarantined != 1 || st.Entries != 0 || st.Bytes != 0 {
		t.Errorf("stats after quarantine = %+v", st)
	}
	// The key is a plain miss now: regenerating the content works.
	if err := s.Put("point", h("victim"), blob); err != nil {
		t.Fatal(err)
	}
	got, ok, err = s.Get("point", h("victim"))
	if err != nil || !ok || !bytes.Equal(got, blob) {
		t.Fatalf("regenerated blob: %q ok=%v err=%v", got, ok, err)
	}
	// The quarantine was persisted: a reopened store agrees.
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok, _ := s2.Get("point", h("victim")); !ok || !bytes.Equal(got, blob) {
		t.Fatalf("reopened store lost regenerated blob: %q ok=%v", got, ok)
	}
}

// TestPutFaultTornWrite drives the chaos seam: a torn write (truncation
// that survives the rename) lands on disk with a mismatched checksum
// record, so the first read quarantines it instead of serving it.
func TestPutFaultTornWrite(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	blob := []byte("full content that the writer intended")
	s.SetPutFault(func(ns, hash string, b []byte) []byte { return b[:len(b)/2] })
	if err := s.Put("point", h("torn"), blob); err != nil {
		t.Fatal(err)
	}
	s.SetPutFault(nil)
	if _, ok, err := s.Get("point", h("torn")); ok || err != nil {
		t.Fatalf("torn blob served: ok=%v err=%v", ok, err)
	}
	if st := s.Stats(); st.Quarantined != 1 {
		t.Errorf("stats = %+v, want 1 quarantine", st)
	}
	// The healthy rewrite round-trips.
	if err := s.Put("point", h("torn"), blob); err != nil {
		t.Fatal(err)
	}
	if got, ok, err := s.Get("point", h("torn")); err != nil || !ok || !bytes.Equal(got, blob) {
		t.Fatalf("rewrite: %q ok=%v err=%v", got, ok, err)
	}
}

// TestOpenCrashRecovery reopens a store after a crash that left temp
// debris behind, a stored blob gone from disk and a plain blob of the
// earlier format that its index never listed: the plain blob is adopted
// (with a checksum, so it stays verified), the entry whose blob is gone
// is dropped, and stale tmp files are cleared.
func TestOpenCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("point", h("survivor"), []byte("survivor")); err != nil {
		t.Fatal(err)
	}
	// A stored entry whose blob vanished.
	if err := s.Put("point", h("vanished"), []byte("vanished")); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(blobFile(dir, "point", h("vanished"), []byte("vanished"))); err != nil {
		t.Fatal(err)
	}
	// A plain blob that landed but whose index rewrite never did.
	orphanPath := plainFile(dir, "point", h("orphan"))
	if err := os.MkdirAll(filepath.Dir(orphanPath), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(orphanPath, []byte("orphan"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Temp debris from the crashed writes.
	for _, name := range []string{"blob-crashed", "index-crashed"} {
		if err := os.WriteFile(filepath.Join(dir, "tmp", name), []byte("debris"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got, ok, err := s2.Get("point", h("survivor")); err != nil || !ok || string(got) != "survivor" {
		t.Fatalf("survivor: %q ok=%v err=%v", got, ok, err)
	}
	if got, ok, err := s2.Get("point", h("orphan")); err != nil || !ok || string(got) != "orphan" {
		t.Fatalf("orphan not adopted: %q ok=%v err=%v", got, ok, err)
	}
	for _, e := range s2.Entries() {
		if e.Namespace == "point" && e.Hash == h("vanished") {
			t.Error("entry whose blob vanished survived the reopen")
		}
	}
	if s2.Len() != 2 {
		t.Fatalf("store has %d entries, want 2", s2.Len())
	}
	ents, err := os.ReadDir(filepath.Join(dir, "tmp"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Errorf("tmp debris not cleared: %d files remain", len(ents))
	}
	// Adopted blobs are covered by verification: corrupt the orphan and
	// the next read quarantines it.
	if err := os.WriteFile(blobFile(dir, "point", h("orphan"), []byte("orphan")), []byte("rotted"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s2.Get("point", h("orphan")); ok || err != nil {
		t.Fatalf("rotted adopted blob served: ok=%v err=%v", ok, err)
	}
	if st := s2.Stats(); st.Quarantined != 1 {
		t.Errorf("stats = %+v, want 1 quarantine", st)
	}
}

// legacyEntry is an entry of the earlier format's index.json, in the
// layout of stores that kept consistent-hash placement metadata: owner
// sat between size and sum.
type legacyEntry struct {
	Namespace string `json:"namespace"`
	Hash      string `json:"hash"`
	Size      int64  `json:"size"`
	Owner     string `json:"owner,omitempty"`
	Sum       string `json:"sum,omitempty"`
}

// plantLegacy builds a store of the earlier format by hand: each blob
// plain at plainFile under namespace "point", and an index.json whose
// entries carry owners. It returns the entries the index records,
// sorted by key.
func plantLegacy(t *testing.T, dir string, blobs map[string]string) []Entry {
	t.Helper()
	var legacy struct {
		Entries []legacyEntry `json:"entries"`
	}
	var want []Entry
	for hash, blob := range blobs {
		path := plainFile(dir, "point", hash)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(blob), 0o644); err != nil {
			t.Fatal(err)
		}
		want = append(want, Entry{Namespace: "point", Hash: hash, Size: int64(len(blob)), Sum: HashOf([]byte(blob))})
	}
	sort.Slice(want, func(i, j int) bool { return want[i].Hash < want[j].Hash })
	for i, e := range want {
		owner := fmt.Sprintf("node-%c", 'a'+i)
		legacy.Entries = append(legacy.Entries, legacyEntry{e.Namespace, e.Hash, e.Size, owner, e.Sum})
	}
	b, err := json.MarshalIndent(legacy, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, legacyIndex), b, 0o644); err != nil {
		t.Fatal(err)
	}
	return want
}

// assertMigrated checks that no plain blob and no index remain, and
// that every entry sits under its checksum name.
func assertMigrated(t *testing.T, dir string, entries []Entry) {
	t.Helper()
	if _, err := os.Stat(filepath.Join(dir, legacyIndex)); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("legacy index still present after Open: err=%v", err)
	}
	for _, e := range entries {
		if _, err := os.Stat(plainFile(dir, e.Namespace, e.Hash)); !errors.Is(err, fs.ErrNotExist) {
			t.Errorf("plain blob %s not migrated: err=%v", e.Hash, err)
		}
		named := plainFile(dir, e.Namespace, e.Hash) + "." + strings.TrimPrefix(e.Sum, "sha256:")
		if _, err := os.Stat(named); err != nil {
			t.Errorf("blob %s not under its checksum name: %v", e.Hash, err)
		}
	}
}

// TestOpenAcceptsLegacyOwnerIndex: a store of the earlier format —
// plain blobs, checksums only in an index.json whose entries carry
// "owner" keys — must reopen with every entry, size and checksum taken
// from that index, migrated to checksum names with the index gone.
// Reads still verify: a blob rotted on disk after the index was written
// is caught by the indexed checksum (an index dropped on decode would
// re-hash the rotted bytes and serve them).
func TestOpenAcceptsLegacyOwnerIndex(t *testing.T) {
	dir := t.TempDir()
	blobs := map[string]string{h("a"): "alpha", h("b"): "beta", h("victim"): "gamma"}
	want := plantLegacy(t, dir, blobs)
	// Same-length rot: the size still matches, only the checksum can
	// tell.
	if err := os.WriteFile(plainFile(dir, "point", h("victim")), []byte("gamme"), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := s2.Entries(); !reflect.DeepEqual(got, want) {
		t.Fatalf("reopened entries = %+v, want %+v", got, want)
	}
	assertMigrated(t, dir, want)
	for hash, blob := range blobs {
		got, ok, err := s2.Get("point", hash)
		if err != nil {
			t.Fatal(err)
		}
		if hash == h("victim") {
			if ok {
				t.Fatalf("rotted blob served: %q", got)
			}
			continue
		}
		if !ok || string(got) != blob {
			t.Fatalf("Get %s = %q, ok=%v; want %q", hash, got, ok, blob)
		}
	}
	if st := s2.Stats(); st.Quarantined != 1 || st.Hits != 2 {
		t.Errorf("stats = %+v, want 2 verified hits and 1 quarantine", st)
	}
}

// TestOpenFinishesHalfMigratedStore: a crash mid-migration leaves some
// blobs already under their checksum names, the rest plain, and the
// index in place. The next Open finishes the migration from the index —
// a plain blob that rotted before the crash is still caught by its
// indexed sum — and loses no entry; the reopen after it agrees.
func TestOpenFinishesHalfMigratedStore(t *testing.T) {
	dir := t.TempDir()
	blobs := map[string]string{h("a"): "alpha", h("b"): "beta", h("c"): "gamma", h("victim"): "delta"}
	want := plantLegacy(t, dir, blobs)
	for _, hash := range []string{h("a"), h("b")} {
		if err := os.Rename(plainFile(dir, "point", hash), blobFile(dir, "point", hash, []byte(blobs[hash]))); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(plainFile(dir, "point", h("victim")), []byte("delts"), 0o644); err != nil {
		t.Fatal(err)
	}

	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Entries(); !reflect.DeepEqual(got, want) {
		t.Fatalf("entries after finishing the migration = %+v, want %+v", got, want)
	}
	assertMigrated(t, dir, want)
	for hash, blob := range blobs {
		got, ok, err := s.Get("point", hash)
		if err != nil {
			t.Fatal(err)
		}
		if ok != (hash != h("victim")) || ok && string(got) != blob {
			t.Fatalf("Get %s = %q, ok=%v; want %q unless rotted", hash, got, ok, blob)
		}
	}
	if st := s.Stats(); st.Quarantined != 1 || st.Hits != 3 || st.Entries != 3 {
		t.Errorf("stats = %+v, want 3 verified hits, 1 quarantine, 3 entries", st)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := s2.Entries(), s.Entries(); !reflect.DeepEqual(got, want) {
		t.Fatalf("reopen entries = %+v, want %+v", got, want)
	}
}

// TestVanishedBlobIsAMiss: a blob file removed behind the store's back
// — by an operator, or by another process's quarantine — must read as
// a nil-error miss that drops the entry and its bytes, so the next Put
// stores the blob again instead of no-opping as a duplicate.
func TestVanishedBlobIsAMiss(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	blob := []byte("content")
	if err := s.Put("point", h("gone"), blob); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(blobFile(dir, "point", h("gone"), blob)); err != nil {
		t.Fatal(err)
	}
	if got, ok, err := s.Get("point", h("gone")); ok || err != nil {
		t.Fatalf("vanished blob: %q ok=%v err=%v, want a nil-error miss", got, ok, err)
	}
	if st := s.Stats(); st.Entries != 0 || st.Bytes != 0 || st.Misses != 1 || st.Quarantined != 0 {
		t.Errorf("stats after the miss = %+v", st)
	}
	if err := s.Put("point", h("gone"), blob); err != nil {
		t.Fatal(err)
	}
	if got, ok, err := s.Get("point", h("gone")); err != nil || !ok || !bytes.Equal(got, blob) {
		t.Fatalf("stored again: %q ok=%v err=%v", got, ok, err)
	}
	want := Stats{Entries: 1, Bytes: int64(len(blob)), Puts: 2, Hits: 1, Misses: 1}
	if st := s.Stats(); st != want {
		t.Errorf("stats = %+v, want %+v", st, want)
	}

	// The same through a second store on the directory: its quarantine
	// takes the file the first store still lists.
	other, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(blobFile(dir, "point", h("gone"), blob), []byte("rotted!"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := other.Get("point", h("gone")); ok || err != nil {
		t.Fatalf("rotted blob: ok=%v err=%v", ok, err)
	}
	if _, ok, err := s.Get("point", h("gone")); ok || err != nil {
		t.Fatalf("blob quarantined by another store: ok=%v err=%v, want a nil-error miss", ok, err)
	}
	if err := s.Put("point", h("gone"), blob); err != nil {
		t.Fatal(err)
	}
	if got, ok, err := s.Get("point", h("gone")); err != nil || !ok || !bytes.Equal(got, blob) {
		t.Fatalf("stored again after the other store's quarantine: %q ok=%v err=%v", got, ok, err)
	}
}

// tree maps every regular file under dir, by relative path, to its
// info.
func tree(t *testing.T, dir string) map[string]fs.FileInfo {
	t.Helper()
	out := map[string]fs.FileInfo{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		out[strings.TrimPrefix(path, dir)] = info
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestPutWritesOnlyItsOwnBlob: a Put adds exactly one file, its blob
// under its checksum name, and leaves every other file under the root
// as it was — no index, nothing modified in place — so a hard-linked
// copy of the store stays a copy.
func TestPutWritesOnlyItsOwnBlob(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := s.Put("point", h(fmt.Sprint(i)), []byte(fmt.Sprint("blob-", i))); err != nil {
			t.Fatal(err)
		}
	}
	before := tree(t, dir)
	blob := []byte("new")
	if err := s.Put("point", h("new"), blob); err != nil {
		t.Fatal(err)
	}
	after := tree(t, dir)
	if len(after) != len(before)+1 {
		t.Fatalf("Put went from %d files to %d, want one more", len(before), len(after))
	}
	if _, ok := after[strings.TrimPrefix(blobFile(dir, "point", h("new"), blob), dir)]; !ok {
		t.Fatalf("new blob not under its checksum name; files: %v", after)
	}
	for rel, was := range before {
		now, ok := after[rel]
		if !ok || !os.SameFile(was, now) || !now.ModTime().Equal(was.ModTime()) || now.Size() != was.Size() {
			t.Errorf("Put touched %s", rel)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, legacyIndex)); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("store wrote an index: err=%v", err)
	}
}

func TestConcurrentPutsAndGets(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 16; i++ {
				// All workers fight over the same 16 keys: every put
				// past the first per key is a duplicate no-op.
				hash := h(fmt.Sprint(i))
				if err := s.Put("point", hash, []byte(fmt.Sprintf("blob-%d", i))); err != nil {
					t.Error(err)
					return
				}
				got, ok, err := s.Get("point", hash)
				if err != nil || !ok {
					t.Errorf("get %d: ok=%v err=%v", i, ok, err)
					return
				}
				if want := fmt.Sprintf("blob-%d", i); string(got) != want {
					t.Errorf("get %d = %q", i, got)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if s.Len() != 16 {
		t.Fatalf("store has %d entries, want 16", s.Len())
	}
}
