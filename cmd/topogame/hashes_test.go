package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"selfishnet/internal/scenario"
)

// TestContentHashesGolden pins the content addresses that persisted
// store blobs are keyed on: Spec.Hash of every catalog spec, Sweep.Hash
// of every checked-in grid, and Spec.Hash of each of its grid points.
// Each is taken as written and with quick mode folded in, the form the
// serve layer and the fabric key quick runs under. A change that moves
// any line re-keys every blob stored under it, so the golden may only
// change deliberately, in the same commit.
func TestContentHashesGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/content_hashes.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := contentHashes(t); !bytes.Equal(got, want) {
		t.Fatalf("content hashes moved\n--- got\n%s--- want\n%s", got, want)
	}
}

// contentHashes renders one "<label> <hash>" line per pinned address.
func contentHashes(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	emit := func(label, hash string, err error) {
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		fmt.Fprintf(&buf, "%s %s\n", label, hash)
	}
	open := func(name string) *os.File {
		f, err := os.Open(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { f.Close() })
		return f
	}
	quicks := []bool{false, true}

	for _, id := range scenario.IDs() {
		spec, err := scenario.CatalogSpec(id)
		if err != nil {
			t.Fatal(err)
		}
		for _, quick := range quicks {
			spec.Quick = quick
			h, err := spec.Hash()
			emit(fmt.Sprintf("catalog %s quick=%t", id, quick), h, err)
		}
	}

	spec, err := scenario.ReadSpec(open("spec_example.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, quick := range quicks {
		spec.Quick = quick
		h, err := spec.Hash()
		emit(fmt.Sprintf("spec spec_example.json quick=%t", quick), h, err)
	}

	for _, name := range []string{"sweep_churn.json", "sweep_large_n.json", "sweep_smoke.json"} {
		sw, err := scenario.ReadSweep(open(name))
		if err != nil {
			t.Fatal(err)
		}
		for _, quick := range quicks {
			sw.Base.Quick = quick
			h, err := sw.Hash()
			emit(fmt.Sprintf("sweep %s quick=%t", name, quick), h, err)
			pts, err := sw.EnumeratePoints()
			if err != nil {
				t.Fatal(err)
			}
			for _, pt := range pts {
				emit(fmt.Sprintf("point %s quick=%t #%d", name, quick, pt.Index), pt.Hash, nil)
			}
		}
	}
	return buf.Bytes()
}
