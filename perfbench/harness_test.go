package main

import (
	"encoding/json"
	"os"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestPercentileRefusesThinTails(t *testing.T) {
	samples := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(n - i) // descending, so the copy must be sorted
		}
		return s
	}
	for _, tc := range []struct {
		p    float64
		n    int
		want float64 // 0 means refused
	}{
		{99, 999, 0},
		{99, 1000, 990},
		{99.9, 9999, 0},
		{99.9, 10000, 9990},
		{90, 99, 0},
		{90, 100, 90},
		{50, 1, 1},
		{50, 4, 2},
	} {
		got, err := percentile(samples(tc.n), tc.p)
		if tc.want == 0 {
			if err == nil {
				t.Errorf("p%g of %d samples = %g, want a refusal", tc.p, tc.n, got)
			}
			continue
		}
		if err != nil || got != tc.want {
			t.Errorf("p%g of %d samples = %g, %v; want %g", tc.p, tc.n, got, err, tc.want)
		}
	}
	if _, err := percentile(nil, 50); err == nil {
		t.Error("p50 of no samples: want an error")
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of 3 = %g, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 4 = %g, want 2.5", got)
	}
}

// TestSelfTimeUnionOfConcurrentChildren records a parent span whose
// children run on two goroutines at once: self time must subtract the
// union of the children, not their sum.
func TestSelfTimeUnionOfConcurrentChildren(t *testing.T) {
	tr := newTracer()
	parent := tr.begin("parent", 0, 1)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var children []span
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := tr.begin("child", parent.ID, 1)
			time.Sleep(20 * time.Millisecond)
			c = tr.end(c)
			mu.Lock()
			children = append(children, c)
			mu.Unlock()
		}()
	}
	wg.Wait()
	time.Sleep(5 * time.Millisecond)
	parent = tr.end(parent)

	spans := tr.snapshot()
	if len(spans) != 3 {
		t.Fatalf("recorded %d spans, want 3", len(spans))
	}
	var ivs []interval
	var childSum time.Duration
	for _, c := range children {
		ivs = append(ivs, interval{c.Start, c.End})
		childSum += c.dur()
	}
	union := unionLen(ivs, parent.Start, parent.End)
	if union >= childSum {
		t.Fatalf("children did not overlap (union %v, sum %v)", union, childSum)
	}
	self := selfTimes(spans)[parent.ID]
	if want := parent.dur() - union; self != want {
		t.Errorf("self time %v, want duration %v minus union %v = %v", self, parent.dur(), union, want)
	}
	if self <= parent.dur()-childSum {
		t.Errorf("self time %v subtracts the children's sum %v, not their union %v", self, childSum, union)
	}
}

func TestUnionLenClipsAndMerges(t *testing.T) {
	ivs := []interval{{10, 20}, {15, 30}, {40, 50}, {45, 46}, {0, 5}}
	if got := unionLen(ivs, 0, 100); got != 5+20+10 {
		t.Errorf("union = %v, want 35", got)
	}
	if got := unionLen(ivs, 12, 42); got != 18+2 {
		t.Errorf("clipped union = %v, want 20", got)
	}
}

func TestCoverageCountsTopLevelOnly(t *testing.T) {
	spans := []span{
		{ID: 1, Start: 0, End: 40},
		{ID: 2, Parent: 1, Start: 50, End: 90}, // a child outside its parent still is not top level
		{ID: 3, Start: 60, End: 80},
	}
	if got := coverage(spans, 0, 100); got != 0.6 {
		t.Errorf("coverage = %g, want 0.6", got)
	}
}

func TestMetricNameCharset(t *testing.T) {
	for _, ok := range []string{"setup_s", "oracle.busy_s.local-search", "9a", strings.Repeat("a", 64)} {
		if err := checkMetricName(ok); err != nil {
			t.Errorf("%q rejected: %v", ok, err)
		}
	}
	for _, bad := range []string{"", "_x", ".x", "-x", "a b", "a/b", "μs", "a:b", strings.Repeat("a", 65)} {
		if checkMetricName(bad) == nil {
			t.Errorf("%q accepted", bad)
		}
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if err := checkMetricName(d.Name); err != nil {
			t.Error(err)
		}
		if seen[d.Name] {
			t.Errorf("metric %q declared twice", d.Name)
		}
		seen[d.Name] = true
	}
}

// TestBenchmarkJSONMatchesRegistry keeps BENCHMARK.json and the
// metrics this program prints in step.
func TestBenchmarkJSONMatchesRegistry(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metricDef             `json:"end_to_end"`
		PerLayer  []metricDef             `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s metric %d: BENCHMARK.json %+v, program %+v", kind, i, got[i], want[i])
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, doc.Workloads[i].Name, w.name)
		}
	}
}
