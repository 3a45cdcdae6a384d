package construct

import (
	"math"
	"testing"

	"selfishnet/internal/core"
	"selfishnet/internal/nash"
	"selfishnet/internal/opt"
)

func TestNewFigure1Structure(t *testing.T) {
	f, err := NewFigure1(7, 4)
	if err != nil {
		t.Fatal(err)
	}
	p := f.Profile
	// Every peer except the first links to its left neighbor.
	for pi := 1; pi < 7; pi++ {
		if !p.HasLink(pi, pi-1) {
			t.Errorf("peer %d missing left link", pi)
		}
	}
	// Paper-odd peers (0-based even) link two to the right.
	for _, pi := range []int{0, 2, 4} {
		if !p.HasLink(pi, pi+2) {
			t.Errorf("peer %d missing right link to %d", pi, pi+2)
		}
	}
	// Paper-even peers have no right links.
	for _, pi := range []int{1, 3, 5} {
		for j := pi + 1; j < 7; j++ {
			if p.HasLink(pi, j) {
				t.Errorf("even peer %d has unexpected right link to %d", pi, j)
			}
		}
	}
	// Link count for odd n: (n-1) left + (n-1)/2 right.
	if got, want := p.LinkCount(), 6+3; got != want {
		t.Errorf("LinkCount = %d, want %d", got, want)
	}
	ev := core.NewEvaluator(f.Instance)
	if !ev.Connected(p) {
		t.Fatal("figure 1 topology must be strongly connected")
	}
}

func TestNewFigure1EvenBoundary(t *testing.T) {
	f, err := NewFigure1(6, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Boundary completion: last paper-odd peer (0-based 4) links to 5.
	if !f.Profile.HasLink(4, 5) {
		t.Error("boundary completion missing")
	}
	ev := core.NewEvaluator(f.Instance)
	if !ev.Connected(f.Profile) {
		t.Fatal("even-n topology must still be connected")
	}
}

func TestNewFigure1Validation(t *testing.T) {
	if _, err := NewFigure1(2, 4); err == nil {
		t.Error("n=2 should error")
	}
	if _, err := NewFigure1(5, 1); err == nil {
		t.Error("alpha=1 should error (degenerate line)")
	}
}

func TestFigure1IsNashLemma42(t *testing.T) {
	// Lemma 4.2: the topology is a Nash equilibrium for α ≥ 3.4.
	// Verified with the exact oracle for odd n.
	for _, tc := range []struct {
		n     int
		alpha float64
	}{
		{5, 3.4}, {7, 3.4}, {9, 3.4},
		{7, 4}, {9, 6}, {11, 10},
	} {
		f, err := NewFigure1(tc.n, tc.alpha)
		if err != nil {
			t.Fatal(err)
		}
		ev := core.NewEvaluator(f.Instance)
		ok, err := nash.IsNash(ev, f.Profile)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Errorf("n=%d α=%v: figure 1 not Nash (Lemma 4.2 violated)", tc.n, tc.alpha)
		}
	}
}

func TestFigure1SocialCostScaling(t *testing.T) {
	// Lemma 4.3: C(G) ∈ Θ(αn²). Check the stretch part dominates and
	// grows with n² within sane constants.
	const alpha = 4.0
	for _, n := range []int{7, 9, 11, 13} {
		f, err := NewFigure1(n, alpha)
		if err != nil {
			t.Fatal(err)
		}
		ev := core.NewEvaluator(f.Instance)
		sc := ev.SocialCost(f.Profile)
		an2 := alpha * float64(n) * float64(n)
		if sc.Term < 0.02*an2 {
			t.Errorf("n=%d: stretch cost %f too small vs αn² = %f", n, sc.Term, an2)
		}
		if sc.Term > 2*an2 {
			t.Errorf("n=%d: stretch cost %f too large vs αn² = %f", n, sc.Term, an2)
		}
		// Link cost is α · 3(n-1)/2 ∈ Θ(αn).
		wantLinks := alpha * 3 * float64(n-1) / 2
		if math.Abs(sc.Link-wantLinks) > 1e-9 {
			t.Errorf("n=%d: link cost %f, want %f", n, sc.Link, wantLinks)
		}
	}
}

func TestFigure1PoAGrowsWithAlpha(t *testing.T) {
	// Theorem 4.4: PoA = C(G)/C(OPT) ∈ Θ(min(α, n)). In the regime
	// n >> α, the ratio against the G̃ upper bound grows with α and stays
	// within constant factors of min(α, n).
	ratio := func(n int, alpha float64) float64 {
		f, err := NewFigure1(n, alpha)
		if err != nil {
			t.Fatal(err)
		}
		ev := core.NewEvaluator(f.Instance)
		return ev.SocialCost(f.Profile).Total() / OptimalLineCost(n, alpha)
	}
	const n = 41
	r4, r8, r16 := ratio(n, 4), ratio(n, 8), ratio(n, 16)
	if !(r4 > 1 && r8 > r4 && r16 > r8) {
		t.Errorf("ratios must increase in α: %f, %f, %f", r4, r8, r16)
	}
	// Θ(min(α,n)) with moderate constants: normalized ratios in a fixed
	// band across the grid.
	for _, tc := range []struct {
		alpha float64
		r     float64
	}{{4, r4}, {8, r8}, {16, r16}} {
		norm := tc.r / math.Min(tc.alpha, n)
		if norm < 0.08 || norm > 1.5 {
			t.Errorf("α=%v: ratio/min(α,n) = %f outside Θ band", tc.alpha, norm)
		}
	}
}

func TestOptimalLineStretchOne(t *testing.T) {
	f, err := NewFigure1(9, 4)
	if err != nil {
		t.Fatal(err)
	}
	ev := core.NewEvaluator(f.Instance)
	gTilde := opt.Chain(9)
	sc := ev.SocialCost(gTilde)
	// All 72 ordered pairs at stretch 1.
	if math.Abs(sc.Term-72) > 1e-9 {
		t.Errorf("G̃ stretch cost = %f, want 72", sc.Term)
	}
	if math.Abs(sc.Total()-OptimalLineCost(9, 4)) > 1e-9 {
		t.Errorf("OptimalLineCost mismatch: %f vs %f", sc.Total(), OptimalLineCost(9, 4))
	}
}

func TestLemma42Threshold(t *testing.T) {
	// Analytic root of (4α²−1)/(α²−1) = α+1 is (3+√13)/2 ≈ 3.3028; the
	// paper rounds up to 3.4.
	th := Lemma42Threshold(1e-10)
	want := (3 + math.Sqrt(13)) / 2
	if math.Abs(th-want) > 1e-6 {
		t.Errorf("threshold = %f, want %f", th, want)
	}
	if th > Figure1MinAlpha {
		t.Errorf("threshold %f exceeds the paper's 3.4", th)
	}
}

func TestLemma42HoldsBoundary(t *testing.T) {
	if Lemma42Holds(3.0) {
		t.Error("bound should fail at α=3.0")
	}
	if !Lemma42Holds(3.4) {
		t.Error("bound should hold at α=3.4 (the paper's constant)")
	}
	if !Lemma42Holds(10) {
		t.Error("bound should hold at α=10")
	}
	if Lemma42Holds(1) {
		t.Error("α ≤ 1 must be rejected")
	}
}

func TestLemma42BenefitBelowBound(t *testing.T) {
	// The exact series must stay below the paper's closed-form bound.
	for _, alpha := range []float64{3.4, 4, 6, 10} {
		benefit := Lemma42Benefit(alpha, 128)
		bound := Lemma42BenefitBound(alpha)
		if benefit >= bound {
			t.Errorf("α=%v: series %f ≥ bound %f", alpha, benefit, bound)
		}
		if benefit >= alpha+1 {
			t.Errorf("α=%v: benefit %f ≥ α+1, lemma conclusion fails", alpha, benefit)
		}
	}
}

func TestLemma42BenefitDiverges(t *testing.T) {
	// For α close to 1 the first denominator goes non-positive: the
	// series blows up, signaled by +Inf.
	if !math.IsInf(Lemma42Benefit(1.2, 32), 1) {
		t.Error("benefit at α=1.2 should be +Inf (denominator ≤ 0)")
	}
}
