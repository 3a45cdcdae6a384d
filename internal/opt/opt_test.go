package opt

import (
	"math"
	"testing"

	"selfishnet/internal/core"
	"selfishnet/internal/metric"
	"selfishnet/internal/rng"
)

func instanceFor(t *testing.T, space metric.Space, alpha float64) (*core.Instance, *core.Evaluator) {
	t.Helper()
	inst, err := core.NewInstance(space, alpha)
	if err != nil {
		t.Fatal(err)
	}
	return inst, core.NewEvaluator(inst)
}

func uniformInstance(t *testing.T, seed uint64, n int, alpha float64) (*core.Instance, *core.Evaluator) {
	t.Helper()
	space, err := metric.UniformPoints(rng.New(seed), n, 2)
	if err != nil {
		t.Fatal(err)
	}
	return instanceFor(t, space, alpha)
}

func lineInstance(t *testing.T, positions []float64, alpha float64) (*core.Instance, *core.Evaluator) {
	t.Helper()
	space, err := metric.Line(positions)
	if err != nil {
		t.Fatal(err)
	}
	return instanceFor(t, space, alpha)
}

func TestFullMeshProperties(t *testing.T) {
	_, ev := uniformInstance(t, 1, 6, 2)
	p := FullMesh(6)
	if p.LinkCount() != 30 {
		t.Fatalf("links = %d, want 30", p.LinkCount())
	}
	sc := ev.SocialCost(p)
	if math.Abs(sc.Term-30) > 1e-9 { // all stretches 1
		t.Errorf("Term = %f, want 30", sc.Term)
	}
}

func TestStar(t *testing.T) {
	_, ev := uniformInstance(t, 2, 5, 1)
	p, err := Star(5, 2)
	if err != nil {
		t.Fatal(err)
	}
	if p.LinkCount() != 8 {
		t.Fatalf("links = %d, want 8", p.LinkCount())
	}
	if !ev.Connected(p) {
		t.Fatal("star must be connected")
	}
	if _, err := Star(5, 7); err == nil {
		t.Error("bad center should error")
	}
}

func TestChainOnLineIsAllStretchOne(t *testing.T) {
	// On a line with indices sorted by position, the chain G̃ gives every
	// pair stretch exactly 1: the collinear relay property the paper uses
	// to bound OPT by O(αn + n²).
	_, ev := lineInstance(t, []float64{0, 1, 3, 7, 20}, 4)
	p := Chain(5)
	sc := ev.SocialCost(p)
	wantTerm := float64(5 * 4)
	if math.Abs(sc.Term-wantTerm) > 1e-9 {
		t.Errorf("Term = %f, want %f", sc.Term, wantTerm)
	}
	if got, want := sc.Link, 4.0*float64(2*4); got != want {
		t.Errorf("Link = %f, want %f", got, want)
	}
}

func TestDirectedCycleMinimalArcs(t *testing.T) {
	_, ev := uniformInstance(t, 3, 6, 1)
	p := DirectedCycle(6)
	if p.LinkCount() != 6 {
		t.Fatalf("links = %d, want 6 (minimum for strong connectivity)", p.LinkCount())
	}
	if !ev.Connected(p) {
		t.Fatal("directed cycle must be strongly connected")
	}
}

func TestMSTProfileConnected(t *testing.T) {
	inst, ev := uniformInstance(t, 4, 9, 1)
	p := MSTProfile(inst)
	if p.LinkCount() != 2*(9-1) {
		t.Fatalf("links = %d, want 16", p.LinkCount())
	}
	if !ev.Connected(p) {
		t.Fatal("MST overlay must be connected")
	}
}

func TestPrimMSTOnLine(t *testing.T) {
	inst, _ := lineInstance(t, []float64{0, 10, 1, 11, 2}, 1)
	edges := primMST(inst)
	if len(edges) != 4 {
		t.Fatalf("MST edge count = %d, want 4", len(edges))
	}
	total := 0.0
	for _, e := range edges {
		total += inst.Distance(e[0], e[1])
	}
	// Optimal tree connects 0-2-4 (cost 1+1) and 1-3 (cost 1) and the two
	// groups via 4-1 (cost 8): total 11.
	if math.Abs(total-11) > 1e-12 {
		t.Errorf("MST weight = %f, want 11", total)
	}
}

func TestKNearest(t *testing.T) {
	inst, _ := lineInstance(t, []float64{0, 1, 2, 3, 10}, 1)
	p, err := KNearest(inst, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if p.OutDegree(i) != 2 {
			t.Errorf("peer %d degree = %d, want 2", i, p.OutDegree(i))
		}
	}
	// Peer 0's nearest two are 1 and 2.
	if !p.HasLink(0, 1) || !p.HasLink(0, 2) {
		t.Errorf("peer 0 links = %v", p.Strategy(0))
	}
	if _, err := KNearest(inst, 0); err == nil {
		t.Error("k=0 should error")
	}
	// k larger than n-1 clamps.
	p, err = KNearest(inst, 100)
	if err != nil {
		t.Fatal(err)
	}
	if p.OutDegree(0) != 4 {
		t.Errorf("clamped degree = %d, want 4", p.OutDegree(0))
	}
}

func TestTulipDegreeAndStretch(t *testing.T) {
	inst, ev := uniformInstance(t, 5, 36, 1)
	p, err := Tulip(inst)
	if err != nil {
		t.Fatal(err)
	}
	if !ev.Connected(p) {
		t.Fatal("tulip overlay must be connected")
	}
	// Degree O(√n): with n=36, cluster size ~6 and ~6 clusters, so degree
	// should be well below n-1 = 35.
	maxDeg := 0
	for i := 0; i < 36; i++ {
		if d := p.OutDegree(i); d > maxDeg {
			maxDeg = d
		}
	}
	if maxDeg >= 30 {
		t.Errorf("max degree = %d, want O(√n) << n", maxDeg)
	}
	// Stretch should be a small constant on uniform instances.
	if ms := ev.MaxTerm(p); ms > 8 {
		t.Errorf("max stretch = %f, want small constant", ms)
	}
}

func TestLowerBoundStretchModel(t *testing.T) {
	inst, ev := uniformInstance(t, 6, 7, 3)
	lb := LowerBound(inst)
	want := 3*7.0 + float64(7*6)
	if math.Abs(lb-want) > 1e-9 {
		t.Errorf("LowerBound = %f, want %f", lb, want)
	}
	// No portfolio topology may beat the lower bound.
	portfolio, err := Portfolio(inst)
	if err != nil {
		t.Fatal(err)
	}
	for name, p := range portfolio {
		if c := ev.SocialCost(p); c.Total() < lb-1e-9 {
			t.Errorf("%s beats the universal lower bound: %f < %f", name, c.Total(), lb)
		}
	}
}

func TestBestOfPortfolioOnLine(t *testing.T) {
	// On an evenly spaced line with moderate α, the chain is optimal
	// among the portfolio: stretch cost is the minimum possible n(n-1)
	// and only the directed cycle has fewer links, paying huge stretch
	// going "backwards".
	_, ev := lineInstance(t, []float64{0, 1, 2, 3, 4, 5}, 2)
	_, name, cost, err := BestOfPortfolio(ev)
	if err != nil {
		t.Fatal(err)
	}
	if name != "chain" && name != "mst" { // on a line MST == chain
		t.Errorf("best = %q (cost %f), want chain or mst", name, cost.Total())
	}
}

func TestExhaustiveTinyOptimum(t *testing.T) {
	// n=3 evenly spaced line, α=2: exhaustive OPT must match the chain
	// (stretch 1 everywhere with 4 links).
	_, ev := lineInstance(t, []float64{0, 1, 2}, 2)
	best, cost, err := Exhaustive(ev, 0)
	if err != nil {
		t.Fatal(err)
	}
	chainCost := ev.SocialCost(Chain(3))
	if cost.Total() > chainCost.Total()+1e-9 {
		t.Errorf("exhaustive %f worse than chain %f", cost.Total(), chainCost.Total())
	}
	if !ev.Connected(best) {
		t.Error("optimum must be connected")
	}
	// And it can never beat the universal lower bound.
	if cost.Total() < LowerBound(ev.Instance())-1e-9 {
		t.Errorf("exhaustive %f beats lower bound %f", cost.Total(), LowerBound(ev.Instance()))
	}
}

func TestExhaustiveBudget(t *testing.T) {
	_, ev := uniformInstance(t, 7, 5, 1)
	if _, _, err := Exhaustive(ev, 100); err == nil {
		t.Error("n=5 with budget 100 should error")
	}
}

func TestAnnealImprovesOnBadStart(t *testing.T) {
	_, ev := uniformInstance(t, 8, 6, 4)
	start := FullMesh(6) // expensive start at α=4
	annealed, cost, err := Anneal(ev, start, AnnealConfig{Steps: 4000}, rng.New(9))
	if err != nil {
		t.Fatal(err)
	}
	startCost := ev.SocialCost(start)
	if cost.Total() > startCost.Total()+1e-9 {
		t.Errorf("anneal made things worse: %f > %f", cost.Total(), startCost.Total())
	}
	if !ev.Connected(annealed) {
		t.Error("annealed result should be connected")
	}
	if _, _, err := Anneal(ev, start, AnnealConfig{}, nil); err == nil {
		t.Error("nil rng should error")
	}
	if _, _, err := Anneal(ev, core.NewProfile(3), AnnealConfig{}, rng.New(1)); err == nil {
		t.Error("size mismatch should error")
	}
}

func TestBestKnownSandwich(t *testing.T) {
	inst, ev := uniformInstance(t, 10, 7, 2)
	_, cost, err := BestKnown(ev, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	lb := LowerBound(inst)
	if cost.Total() < lb-1e-9 {
		t.Fatalf("BestKnown %f beats lower bound %f", cost.Total(), lb)
	}
	// The gap should be modest on benign instances.
	if cost.Total() > 10*lb {
		t.Errorf("BestKnown %f is suspiciously far above lower bound %f", cost.Total(), lb)
	}
}

func TestProximityClusters(t *testing.T) {
	inst, _ := lineInstance(t, []float64{0, 0.1, 0.2, 10, 10.1, 10.2}, 1)
	centers, assign := proximityClusters(inst, 2)
	if len(centers) != 2 {
		t.Fatalf("centers = %v", centers)
	}
	// The two groups must get distinct clusters.
	if assign[0] != assign[1] || assign[1] != assign[2] {
		t.Errorf("left group split: %v", assign)
	}
	if assign[3] != assign[4] || assign[4] != assign[5] {
		t.Errorf("right group split: %v", assign)
	}
	if assign[0] == assign[3] {
		t.Errorf("groups merged: %v", assign)
	}
}
