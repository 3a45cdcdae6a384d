package core_test

// Kernel ablation benchmarks: a specialized SSSP kernel against its
// heap twin (core.PinHeap) on the same instance and profile. All
// kernels are bit-identical, so only the wall clock differs. They live
// in an external test package so the profiles can come from
// dynamics.RandomProfile, the generator the root benchmarks use.
//
//	go test -run '^$' -bench 'BenchmarkSocialCost64UniformHeap|BenchmarkSocialCostDial256' -benchmem ./internal/core/

import (
	"testing"

	"selfishnet/internal/core"
	"selfishnet/internal/dynamics"
	"selfishnet/internal/metric"
	"selfishnet/internal/rng"
)

// BenchmarkSocialCost64UniformHeap is the heap ablation of the root
// BenchmarkSocialCost64Uniform: the same all-pairs social cost on the
// implicit n=64 unit metric and the same profile, with the general
// heap kernel in place of the bitset BFS.
func BenchmarkSocialCost64UniformHeap(b *testing.B) {
	space, err := metric.UniformImplicit(64)
	if err != nil {
		b.Fatal(err)
	}
	inst, err := core.NewInstance(space, 4)
	if err != nil {
		b.Fatal(err)
	}
	ev, p := core.NewEvaluator(core.PinHeap(inst)), dynamics.RandomProfile(rng.New(42), 64, 0.2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = ev.SocialCost(p)
	}
}

// BenchmarkSocialCostDial256 runs the Dial bucket-queue kernel on a
// random small-integer metric (n=256, distances in [8,16]), with its
// heap twin as the second sub-benchmark.
func BenchmarkSocialCostDial256(b *testing.B) {
	for _, arm := range []struct {
		name string
		pin  func(*core.Instance) *core.Instance
	}{
		{"dial", func(in *core.Instance) *core.Instance { return in }},
		{"heap", core.PinHeap},
	} {
		b.Run(arm.name, func(b *testing.B) {
			ev, p := smallIntSetup(b, 256, 8, 4, arm.pin)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = ev.SocialCost(p)
			}
		})
	}
}

// smallIntSetup builds a random integer metric with distances in
// [lo, 2·lo] (the triangle inequality holds for free), the class the
// Dial kernel serves, and a random profile; pin picks the kernel twin.
func smallIntSetup(b *testing.B, n, lo int, alpha float64, pin func(*core.Instance) *core.Instance) (*core.Evaluator, core.Profile) {
	b.Helper()
	r := rng.New(42)
	d := make([][]float64, n)
	for i := range d {
		d[i] = make([]float64, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			w := float64(lo + r.Intn(lo+1))
			d[i][j], d[j][i] = w, w
		}
	}
	space, err := metric.NewMatrixUnchecked(d)
	if err != nil {
		b.Fatal(err)
	}
	inst, err := core.NewInstance(space, alpha)
	if err != nil {
		b.Fatal(err)
	}
	return core.NewEvaluator(pin(inst)), dynamics.RandomProfile(r, n, 0.2)
}
