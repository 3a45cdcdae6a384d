package cas

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// The fuzzed store trees draw from eight keys (two namespaces × four
// hashes) and four blob contents.
var (
	fuzzNamespaces = [2]string{"point", "run"}
	fuzzContents   = [4]string{"alpha", "beta-beta", "", `{"row":["1","2"]}`}
)

func fuzzKey(i int) (ns, hash string) {
	return fuzzNamespaces[i/4%2], h(fmt.Sprint("key", i%4))
}

// fuzzTree is a store tree planted from fuzz bytes, and what it states
// about each key.
type fuzzTree struct {
	dir   string
	files map[string][]byte // path relative to dir → bytes, as planted
	// index lists the sums the planted index.json records, by key;
	// corruptIndex marks an index that cannot be decoded.
	index        map[string][]string
	corruptIndex bool
}

// write plants one file, creating its directories; a path that
// collides with an earlier file or directory is skipped.
func (ft *fuzzTree) write(rel string, b []byte) {
	path := filepath.Join(ft.dir, rel)
	if os.MkdirAll(filepath.Dir(path), 0o755) != nil || os.WriteFile(path, b, 0o644) != nil {
		return
	}
	ft.files[filepath.ToSlash(rel)] = b
}

// plantFuzzTree decodes data into a store tree under dir, four bytes
// [op, key, content, arg] per file:
//
//	op 0: a checksum-named blob; its bytes are those of another content
//	      when content/4 picks one, so the name misstates them
//	op 1: a checksum-named blob with one byte of ".<sum>" changed
//	op 2: a checksum-named blob whose ".<sum>" is cut short
//	op 3: a checksum-named blob with a torn tail
//	op 4: a plain blob of the earlier format
//	op 5: a stray: a file where a fan directory goes, a blob in the
//	      wrong fan directory or one level too deep, a bad namespace
//	op 6: tmp/ debris
//	op 7: an index.json entry (with a sum, without one, or, for arg%4
//	      == 3, an index that does not decode)
func plantFuzzTree(dir string, data []byte) *fuzzTree {
	ft := &fuzzTree{dir: dir, files: map[string][]byte{}, index: map[string][]string{}}
	var doc struct {
		Entries []legacyEntry `json:"entries"`
	}
	for i := 0; i+4 <= len(data); i += 4 {
		op, k, c, arg := data[i]%8, int(data[i+1]), int(data[i+2]), int(data[i+3])
		ns, hash := fuzzKey(k)
		hex := strings.TrimPrefix(hash, "sha256:")
		plain := filepath.Join("blobs", ns, hex[:2], hex)
		content := []byte(fuzzContents[c%4])
		carrier := "." + strings.TrimPrefix(HashOf(content), "sha256:")
		switch op {
		case 0:
			ft.write(plain+carrier, []byte(fuzzContents[c/4%4]))
		case 1:
			b := []byte(carrier)
			pos := arg % len(b)
			const alphabet = "0123456789abcdef.-X"
			r := alphabet[c/4%len(alphabet)]
			if r == b[pos] {
				r = alphabet[(c/4+1)%len(alphabet)]
			}
			b[pos] = r
			ft.write(plain+string(b), content)
		case 2:
			ft.write(plain+carrier[:1+arg%(len(carrier)-1)], content)
		case 3:
			ft.write(plain+carrier, content[:arg%(len(content)+1)])
		case 4:
			ft.write(plain, content)
		case 5:
			switch arg % 4 {
			case 0:
				ft.write(filepath.Join("blobs", ns, hex[:2]), content)
			case 1:
				fan := "00"
				if hex[:2] == fan {
					fan = "01"
				}
				ft.write(filepath.Join("blobs", ns, fan, hex+carrier), content)
			case 2:
				ft.write(filepath.Join(plain+carrier, "deeper"), content)
			case 3:
				ft.write(filepath.Join("blobs", "Bad_NS", hex[:2], hex), content)
			}
		case 6:
			ft.write(filepath.Join("tmp", fmt.Sprint("blob-", arg)), content)
		case 7:
			e := legacyEntry{Namespace: ns, Hash: hash, Size: int64(len(content)), Owner: fmt.Sprint("node-", arg)}
			switch arg % 4 {
			case 0, 1:
				e.Sum = HashOf(content)
				ft.index[key(ns, hash)] = append(ft.index[key(ns, hash)], e.Sum)
			case 3:
				ft.corruptIndex = true
			}
			doc.Entries = append(doc.Entries, e)
		}
	}
	if len(doc.Entries) > 0 {
		b, _ := json.Marshal(doc)
		if ft.corruptIndex {
			b = b[:len(b)/2]
		}
		ft.write(legacyIndex, b)
	}
	return ft
}

// stated returns the sums the planted tree records for (ns, hash): the
// carrier of every well-formed checksum name at the key's own path and,
// unless the index is corrupt, every sum the index lists. plain is the
// key's earlier-format blob, if one was planted.
func (ft *fuzzTree) stated(ns, hash string) (sums map[string]bool, plain []byte, hasPlain bool) {
	hex := strings.TrimPrefix(hash, "sha256:")
	prefix := "blobs/" + ns + "/" + hex[:2] + "/" + hex
	sums = map[string]bool{}
	for rel, b := range ft.files {
		switch {
		case rel == prefix:
			plain, hasPlain = b, true
		case strings.HasPrefix(rel, prefix+".") && isSum("sha256:"+rel[len(prefix)+1:]):
			sums["sha256:"+rel[len(prefix)+1:]] = true
		}
	}
	if !ft.corruptIndex {
		for _, sum := range ft.index[key(ns, hash)] {
			sums[sum] = true
		}
	}
	return sums, plain, hasPlain
}

// FuzzOpen opens a store over a fuzzed tree and checks that Open never
// fails on it, that every Get either serves bytes whose SHA-256 is the
// entry's sum — a sum the tree stated for the key, or, for a plain blob
// with none, the bytes as planted — or is a nil-error miss with the
// blob moved under corrupt/, and that a second Open agrees with the
// first store after the Gets.
func FuzzOpen(f *testing.F) {
	rec := func(ops ...[4]byte) []byte {
		var b []byte
		for _, op := range ops {
			b = append(b, op[:]...)
		}
		return b
	}
	good := [4]byte{0, 1, 1, 0} // a sound blob under a second key
	// Every byte of the checksum carrier mutated.
	for pos := 0; pos < 65; pos++ {
		f.Add(rec([4]byte{1, 0, 0, byte(pos)}, good))
	}
	f.Add(rec([4]byte{3, 0, 3, 5}, good))  // a torn tail
	f.Add(rec([4]byte{0, 0, 4, 0}))        // a name that misstates its bytes
	f.Add(rec([4]byte{2, 0, 0, 10}, good)) // a carrier cut short
	f.Add(rec([4]byte{4, 0, 0, 0}, [4]byte{4, 5, 1, 0}, [4]byte{7, 0, 0, 0}, [4]byte{7, 5, 2, 1}, good))
	f.Add(rec([4]byte{4, 0, 0, 0}, [4]byte{7, 0, 1, 0}))                      // an indexed sum the plain blob no longer matches
	f.Add(rec([4]byte{4, 0, 0, 0}, [4]byte{7, 0, 0, 2}))                      // an index entry with no sum
	f.Add(rec([4]byte{4, 0, 0, 0}, [4]byte{0, 0, 0, 0}, [4]byte{7, 0, 0, 0})) // half migrated
	f.Add(rec([4]byte{4, 2, 3, 0}, [4]byte{7, 2, 3, 3}))                      // a corrupt index
	f.Add(rec([4]byte{0, 3, 1, 0}, [4]byte{0, 3, 2, 0}))                      // two checksum names for one key
	f.Add(rec([4]byte{5, 0, 0, 0}, [4]byte{5, 1, 0, 1}, [4]byte{5, 2, 0, 2}, [4]byte{5, 3, 0, 3}, [4]byte{6, 0, 0, 7}, good))
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		ft := plantFuzzTree(dir, data)
		s, err := Open(dir)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		entries := map[string]Entry{}
		var total int64
		for _, e := range s.Entries() {
			entries[key(e.Namespace, e.Hash)] = e
			total += e.Size
		}
		if st := s.Stats(); st.Entries != int64(len(entries)) || st.Bytes != total || s.Len() != len(entries) {
			t.Fatalf("stats %+v, Len %d disagree with %d entries of %d bytes", st, s.Len(), len(entries), total)
		}
		if _, err := os.Stat(filepath.Join(dir, legacyIndex)); !errors.Is(err, fs.ErrNotExist) {
			t.Errorf("index.json survived Open: err=%v", err)
		}
		if ents, _ := os.ReadDir(filepath.Join(dir, "tmp")); len(ents) != 0 {
			t.Errorf("tmp debris survived Open: %d files", len(ents))
		}
		for i := 0; i < 8; i++ {
			ns, hash := fuzzKey(i)
			e, stored := entries[key(ns, hash)]
			b, ok, err := s.Get(ns, hash)
			if err != nil {
				t.Fatalf("Get %s/%s: %v", ns, hash, err)
			}
			if !stored {
				if ok {
					t.Fatalf("Get %s/%s served %q with no entry", ns, hash, b)
				}
				continue
			}
			if !ok {
				if _, err := os.Stat(s.blobPath(ns, hash, e.Sum)); !errors.Is(err, fs.ErrNotExist) {
					t.Errorf("missed blob %s/%s still in the tree: err=%v", ns, hash, err)
				}
				if _, err := os.Stat(filepath.Join(dir, "corrupt", ns+"-"+strings.TrimPrefix(hash, "sha256:"))); err != nil {
					t.Errorf("missed blob %s/%s not under corrupt/: %v", ns, hash, err)
				}
				continue
			}
			if HashOf(b) != e.Sum {
				t.Fatalf("Get %s/%s served bytes hashing to %s, entry sum %s", ns, hash, HashOf(b), e.Sum)
			}
			sums, plain, hasPlain := ft.stated(ns, hash)
			switch {
			case len(sums) > 0 && !sums[e.Sum]:
				t.Fatalf("Get %s/%s served %q under sum %s; the tree stated %v", ns, hash, b, e.Sum, sums)
			case len(sums) == 0 && (!hasPlain || !bytes.Equal(b, plain)):
				t.Fatalf("Get %s/%s served %q; the only blob planted was %q", ns, hash, b, plain)
			}
		}
		s2, err := Open(dir)
		if err != nil {
			t.Fatalf("second Open: %v", err)
		}
		if got, want := s2.Entries(), s.Entries(); !reflect.DeepEqual(got, want) {
			t.Fatalf("second Open entries %+v, want %+v", got, want)
		}
		if got, want := s2.Stats(), s.Stats(); got.Entries != want.Entries || got.Bytes != want.Bytes || s2.Len() != s.Len() {
			t.Fatalf("second Open stats %+v, want entries and bytes of %+v", got, want)
		}
	})
}
