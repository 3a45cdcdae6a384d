package cas

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

// Put and Open against the size of the store. Each store is built
// outside the timer, once per size: n blobs are planted in the plain
// blobs/<ns>/<hex[:2]>/<hex> layout without fsync and the store is
// opened over them, which adopts every blob. That costs one write and
// one read per blob rather than n fsync'd Puts, and a store of the
// earlier format opens the same tree, so both formats are measured
// from the same code.
//
//	go test -run '^$' -bench 'BenchmarkPut|BenchmarkOpen' ./internal/cas/
//
// Besides ns/op (a mean, which one slow fsync moves), each reports the
// median and 90th percentile of its per-operation times.

func benchKey(i int) string { return h(fmt.Sprint("bench-", i)) }

// benchBlob is a distinct blob of about the size of a rendered
// single-spec table.
func benchBlob(i int) []byte {
	return []byte(fmt.Sprintf("%-400d\n", i))
}

// openPlanted plants n blobs under dir and opens the store over them.
func openPlanted(b *testing.B, dir string, n int) *Store {
	for i := 0; i < n; i++ {
		hex := strings.TrimPrefix(benchKey(i), "sha256:")
		path := filepath.Join(dir, "blobs", "run", hex[:2], hex)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			b.Fatal(err)
		}
		if err := os.WriteFile(path, benchBlob(i), 0o644); err != nil {
			b.Fatal(err)
		}
	}
	s, err := Open(dir)
	if err != nil {
		b.Fatal(err)
	}
	if s.Len() != n {
		b.Fatalf("planted store holds %d blobs, want %d", s.Len(), n)
	}
	return s
}

func reportPercentiles(b *testing.B, lat []time.Duration) {
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	ms := func(p int) float64 { return float64(lat[(len(lat)-1)*p/100]) / float64(time.Millisecond) }
	b.ReportMetric(ms(50), "p50-ms")
	b.ReportMetric(ms(90), "p90-ms")
}

// BenchmarkPut stores a new blob per iteration; the store grows by b.N
// over the run, a small share of n at the larger sizes.
func BenchmarkPut(b *testing.B) {
	for _, n := range []int{0, 2000, 20000} {
		dir := b.TempDir()
		var s *Store
		next := n
		b.Run(fmt.Sprintf("entries=%d", n), func(b *testing.B) {
			if s == nil {
				s = openPlanted(b, dir, n)
				b.ResetTimer()
			}
			lat := make([]time.Duration, b.N)
			for i := range lat {
				hash, blob := benchKey(next), benchBlob(next)
				next++
				t0 := time.Now()
				if err := s.Put("run", hash, blob); err != nil {
					b.Fatal(err)
				}
				lat[i] = time.Since(t0)
			}
			reportPercentiles(b, lat)
		})
	}
}

// BenchmarkOpen reopens the same store every iteration.
func BenchmarkOpen(b *testing.B) {
	for _, n := range []int{2000, 20000} {
		dir := b.TempDir()
		planted := false
		b.Run(fmt.Sprintf("entries=%d", n), func(b *testing.B) {
			if !planted {
				openPlanted(b, dir, n)
				planted = true
				b.ResetTimer()
			}
			lat := make([]time.Duration, b.N)
			for i := range lat {
				t0 := time.Now()
				s, err := Open(dir)
				lat[i] = time.Since(t0)
				if err != nil {
					b.Fatal(err)
				}
				if s.Len() != n {
					b.Fatalf("reopened store holds %d blobs, want %d", s.Len(), n)
				}
			}
			reportPercentiles(b, lat)
		})
	}
}
