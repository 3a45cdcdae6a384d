package cas

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
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

// TestOpenAdoptsUnindexedBlobs simulates a crash between the blob
// rename and the index rewrite: the blob on disk is the truth and must
// be adopted.
func TestOpenAdoptsUnindexedBlobs(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("point", h("indexed"), []byte("kept")); err != nil {
		t.Fatal(err)
	}
	// Plant a blob directly, bypassing the index.
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

// TestOpenSurvivesCorruptIndex: the index is a cache over the blob
// tree, so garbage in it must not fail Open or lose blobs.
func TestOpenSurvivesCorruptIndex(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("point", h("a"), []byte("survives")); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, indexFile), []byte(`{"entries": [{"trunc`), 0o644); err != nil {
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

// blobFile is the on-disk path Put renames a blob into, mirrored here
// so tests can corrupt state behind the store's back.
func blobFile(dir, ns, hash string) string {
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
	if err := os.WriteFile(blobFile(dir, "point", h("victim")), []byte("garbage"), 0o644); err != nil {
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

// TestOpenCrashRecovery simulates a crash between the blob rename and
// the index fsync, with temp debris left behind: the unindexed blob is
// adopted (with a checksum, so it stays verified), the index entry
// whose blob never landed is dropped, and stale tmp files are cleared.
func TestOpenCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("point", h("survivor"), []byte("survivor")); err != nil {
		t.Fatal(err)
	}
	// Index ahead of blobs: an indexed entry whose blob vanished.
	if err := s.Put("point", h("vanished"), []byte("vanished")); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(blobFile(dir, "point", h("vanished"))); err != nil {
		t.Fatal(err)
	}
	// Blobs ahead of index: a blob that landed but the index rewrite
	// never did.
	orphanPath := blobFile(dir, "point", h("orphan"))
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
			t.Error("dangling index entry survived reconciliation")
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
	if err := os.WriteFile(orphanPath, []byte("rotted"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s2.Get("point", h("orphan")); ok || err != nil {
		t.Fatalf("rotted adopted blob served: ok=%v err=%v", ok, err)
	}
	if st := s2.Stats(); st.Quarantined != 1 {
		t.Errorf("stats = %+v, want 1 quarantine", st)
	}
}

// TestOpenAcceptsLegacyOwnerIndex: indexes written by stores that kept
// consistent-hash placement metadata carry an "owner" key per entry.
// Such a store must reopen with every entry, size and checksum taken
// from that index, and its next index rewrite must be byte-identical to
// an index that never carried owners. Reads still verify: a blob
// rotted on disk after the index was written is caught by the indexed
// checksum (an index dropped on decode would re-hash the rotted bytes
// and serve them).
func TestOpenAcceptsLegacyOwnerIndex(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	blobs := map[string]string{h("a"): "alpha", h("b"): "beta", h("victim"): "gamma"}
	for hash, blob := range blobs {
		if err := s.Put("point", hash, []byte(blob)); err != nil {
			t.Fatal(err)
		}
	}
	indexPath := filepath.Join(dir, indexFile)
	clean, err := os.ReadFile(indexPath)
	if err != nil {
		t.Fatal(err)
	}
	want := s.Entries()

	// The legacy entry layout: owner sat between size and sum.
	type legacyEntry struct {
		Namespace string `json:"namespace"`
		Hash      string `json:"hash"`
		Size      int64  `json:"size"`
		Owner     string `json:"owner,omitempty"`
		Sum       string `json:"sum,omitempty"`
	}
	var legacy struct {
		Entries []legacyEntry `json:"entries"`
	}
	for i, e := range want {
		owner := fmt.Sprintf("node-%c", 'a'+i)
		legacy.Entries = append(legacy.Entries, legacyEntry{e.Namespace, e.Hash, e.Size, owner, e.Sum})
	}
	b, err := json.MarshalIndent(legacy, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(indexPath, b, 0o644); err != nil {
		t.Fatal(err)
	}
	// Same-length rot: the size still matches, only the checksum can
	// tell.
	if err := os.WriteFile(blobFile(dir, "point", h("victim")), []byte("gamme"), 0o644); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := s2.Entries(); !reflect.DeepEqual(got, want) {
		t.Fatalf("reopened entries = %+v, want %+v", got, want)
	}
	rewritten, err := os.ReadFile(indexPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(rewritten, clean) {
		t.Fatalf("rewritten index differs from an owner-free index:\n%s\nwant:\n%s", rewritten, clean)
	}
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
