package rng

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at step %d", i)
		}
	}
}

func TestDistinctSeedsDiverge(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("distinct seeds produced %d identical outputs", same)
	}
}

func TestSplitIndependence(t *testing.T) {
	r := New(7)
	c1 := r.Split()
	c2 := r.Split()
	if c1.Uint64() == c2.Uint64() {
		t.Fatal("split children should differ")
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(3)
	for _, n := range []int{1, 2, 3, 7, 64, 1000} {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) should panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniformity(t *testing.T) {
	r := New(99)
	const n, trials = 10, 100_000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(trials) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d count %d too far from %f", i, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(5)
	for i := 0; i < 10_000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %f out of [0,1)", f)
		}
	}
}

func TestRange(t *testing.T) {
	r := New(6)
	for i := 0; i < 1000; i++ {
		v := r.Range(-2, 3)
		if v < -2 || v >= 3 {
			t.Fatalf("Range(-2,3) = %f out of range", v)
		}
	}
}

func TestExpMean(t *testing.T) {
	r := New(11)
	const rate, trials = 2.0, 200_000
	sum := 0.0
	for i := 0; i < trials; i++ {
		v := r.Exp(rate)
		if v < 0 {
			t.Fatalf("Exp returned negative %f", v)
		}
		sum += v
	}
	mean := sum / trials
	if math.Abs(mean-1/rate) > 0.01 {
		t.Errorf("Exp mean = %f, want ~%f", mean, 1/rate)
	}
}

func TestNormMoments(t *testing.T) {
	r := New(13)
	const trials = 200_000
	sum, sumSq := 0.0, 0.0
	for i := 0; i < trials; i++ {
		v := r.Norm()
		sum += v
		sumSq += v * v
	}
	mean := sum / trials
	variance := sumSq/trials - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("Norm mean = %f, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.03 {
		t.Errorf("Norm variance = %f, want ~1", variance)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(17)
	for _, n := range []int{0, 1, 2, 10, 100} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v is not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

func TestShuffleKeepsMultiset(t *testing.T) {
	r := New(19)
	x := []int{1, 2, 3, 4, 5, 6}
	sum := 0
	for _, v := range x {
		sum += v
	}
	r.Shuffle(len(x), func(i, j int) { x[i], x[j] = x[j], x[i] })
	got := 0
	for _, v := range x {
		got += v
	}
	if got != sum {
		t.Fatalf("Shuffle changed contents: %v", x)
	}
}

func TestZipfSupportAndSkew(t *testing.T) {
	r := New(23)
	z := NewZipf(100, 1.0)
	counts := make([]int, 100)
	for i := 0; i < 100_000; i++ {
		k := z.Sample(r)
		if k < 0 || k >= 100 {
			t.Fatalf("Zipf sample %d out of range", k)
		}
		counts[k]++
	}
	if counts[0] <= counts[50] {
		t.Errorf("Zipf(s=1) not skewed: counts[0]=%d counts[50]=%d", counts[0], counts[50])
	}
}

func TestZipfZeroExponentIsUniform(t *testing.T) {
	r := New(29)
	z := NewZipf(10, 0)
	counts := make([]int, 10)
	const trials = 100_000
	for i := 0; i < trials; i++ {
		counts[z.Sample(r)]++
	}
	want := float64(trials) / 10
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 6*math.Sqrt(want) {
			t.Errorf("uniform Zipf bucket %d = %d, want ~%f", i, c, want)
		}
	}
}

func TestBoolProbability(t *testing.T) {
	r := New(31)
	hits := 0
	const trials = 100_000
	for i := 0; i < trials; i++ {
		if r.Bool(0.25) {
			hits++
		}
	}
	if math.Abs(float64(hits)/trials-0.25) > 0.01 {
		t.Errorf("Bool(0.25) rate = %f", float64(hits)/trials)
	}
}

func TestMul128KnownValues(t *testing.T) {
	hi, lo := mul128(1<<63, 2)
	if hi != 1 || lo != 0 {
		t.Errorf("mul128(2^63, 2) = (%d, %d), want (1, 0)", hi, lo)
	}
	hi, lo = mul128(0xffffffffffffffff, 0xffffffffffffffff)
	if hi != 0xfffffffffffffffe || lo != 1 {
		t.Errorf("mul128(max, max) = (%#x, %#x)", hi, lo)
	}
}
