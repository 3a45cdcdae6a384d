package core

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"selfishnet/internal/bitset"
	"selfishnet/internal/metric"
	"selfishnet/internal/rng"
)

func lineInstance(t *testing.T, positions []float64, alpha float64, opts ...Option) *Instance {
	t.Helper()
	s, err := metric.Line(positions)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := NewInstance(s, alpha, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func TestNewInstanceValidation(t *testing.T) {
	s, err := metric.Line([]float64{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewInstance(nil, 1); err == nil {
		t.Error("nil space should error")
	}
	if _, err := NewInstance(s, -1); err == nil {
		t.Error("negative alpha should error")
	}
	if _, err := NewInstance(s, math.Inf(1)); err == nil {
		t.Error("infinite alpha should error")
	}
	one, err := metric.Line([]float64{3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewInstance(one, 1); err == nil {
		t.Error("single peer should error")
	}
}

func TestTwoPeerCosts(t *testing.T) {
	inst := lineInstance(t, []float64{0, 1}, 2)
	ev := NewEvaluator(inst)
	p := NewProfile(2)
	_ = p.AddLink(0, 1)
	_ = p.AddLink(1, 0)

	c0 := ev.PeerCost(p, 0)
	if c0.Link != 2 || c0.Term != 1 {
		t.Errorf("peer 0 cost = %+v, want {2 1}", c0)
	}
	sc := ev.SocialCost(p)
	if sc.Link != 4 || sc.Term != 2 || sc.Total() != 6 {
		t.Errorf("social = %+v", sc)
	}
	if !ev.Connected(p) {
		t.Error("mutual links should be connected")
	}
}

func TestUnreachableIsInfinite(t *testing.T) {
	inst := lineInstance(t, []float64{0, 1, 5}, 1)
	ev := NewEvaluator(inst)
	p := NewProfile(3)
	_ = p.AddLink(0, 1) // 2 is unreachable from 0
	c := ev.PeerCost(p, 0)
	if !math.IsInf(c.Term, 1) {
		t.Errorf("Term = %f, want +Inf", c.Term)
	}
	if c.Link != 1 {
		t.Errorf("Link = %f, want 1 (finite α·degree even when disconnected)", c.Link)
	}
	if ev.Connected(p) {
		t.Error("Connected should be false")
	}
}

func TestStretchViaIntermediate(t *testing.T) {
	// Peers at 0, 1, 3. Peer 0 links only to 1; 1 links to 2.
	// d_G(0,2) = 1 + 2 = 3 = d(0,2), so stretch is exactly 1 (collinear).
	inst := lineInstance(t, []float64{0, 1, 3}, 0)
	ev := NewEvaluator(inst)
	p := NewProfile(3)
	_ = p.AddLink(0, 1)
	_ = p.AddLink(1, 2)
	c := ev.PeerCost(p, 0)
	if math.Abs(c.Term-2) > 1e-12 { // stretch 1 to each of two peers
		t.Errorf("Term = %f, want 2", c.Term)
	}
}

func TestStretchDetour(t *testing.T) {
	// 2-D: route 0→1→2 is a genuine detour.
	s, err := metric.NewPoints([][]float64{{0, 0}, {1, 0}, {0.5, 1}})
	if err != nil {
		t.Fatal(err)
	}
	inst, err := NewInstance(s, 0)
	if err != nil {
		t.Fatal(err)
	}
	ev := NewEvaluator(inst)
	p := NewProfile(3)
	_ = p.AddLink(0, 1)
	_ = p.AddLink(1, 2)
	d02 := s.Distance(0, 1) + s.Distance(1, 2)
	direct := s.Distance(0, 2)
	wantStretch := d02 / direct
	tm := ev.TermMatrix(p)
	if math.Abs(tm[0][2]-wantStretch) > 1e-12 {
		t.Errorf("stretch(0,2) = %f, want %f", tm[0][2], wantStretch)
	}
	if tm[0][1] != 1 {
		t.Errorf("stretch(0,1) = %f, want 1 (direct link)", tm[0][1])
	}
	if wantStretch <= 1 {
		t.Fatal("test geometry broken: detour should have stretch > 1")
	}
	if got := ev.MaxTerm(p); !math.IsInf(got, 1) {
		// peers 1, 2 can't reach 0, so max term is +Inf.
		t.Errorf("MaxTerm = %f, want +Inf", got)
	}
}

func TestDeviationCostMatchesSetStrategy(t *testing.T) {
	inst := lineInstance(t, []float64{0, 1, 3, 7}, 2.5)
	ev := NewEvaluator(inst)
	p := NewProfile(4)
	_ = p.AddLink(0, 1)
	_ = p.AddLink(1, 2)
	_ = p.AddLink(2, 3)
	_ = p.AddLink(3, 0)

	alt := bitset.FromSlice([]int{2, 3})
	dev := ev.DeviationEval(p, 0, alt).Cost

	q := p.Clone()
	if err := q.SetStrategy(0, alt); err != nil {
		t.Fatal(err)
	}
	direct := ev.PeerCost(q, 0)
	if math.Abs(dev.Total()-direct.Total()) > 1e-12 {
		t.Errorf("DeviationEval cost = %f, SetStrategy+PeerCost = %f", dev.Total(), direct.Total())
	}
}

func TestDistanceModel(t *testing.T) {
	inst := lineInstance(t, []float64{0, 1, 3}, 1, WithModel(DistanceModel))
	ev := NewEvaluator(inst)
	p := NewProfile(3)
	_ = p.AddLink(0, 1)
	_ = p.AddLink(1, 2)
	c := ev.PeerCost(p, 0)
	// Term = d_G(0,1) + d_G(0,2) = 1 + 3 = 4.
	if math.Abs(c.Term-4) > 1e-12 {
		t.Errorf("distance-model Term = %f, want 4", c.Term)
	}
}

// TestModelByName pins the closed cost model: ModelByName maps
// "stretch" and "distance" to StretchModel and DistanceModel and rejects
// other names; the zero CostModel is StretchModel, NewInstance's
// default, and NewInstance rejects a third value; and under both models
// Term is non-decreasing in the overlay distance, Term(+Inf, d) is
// +Inf, and Term(d, d) == LowerBound(d), the contract the evaluator's
// one-accumulator sums, early exits and suffix bounds rest on.
func TestModelByName(t *testing.T) {
	models := []CostModel{StretchModel, DistanceModel}
	for k, name := range []string{"stretch", "distance"} {
		m, err := ModelByName(name)
		if err != nil || m != models[k] || m.Name() != name {
			t.Errorf("ModelByName(%q) = %v (%q), %v", name, m, m.Name(), err)
		}
	}
	if _, err := ModelByName("bogus"); err == nil {
		t.Error("unknown model should error")
	}
	var zero CostModel
	if zero != StretchModel {
		t.Errorf("zero CostModel = %v, want StretchModel", zero)
	}
	if m := lineInstance(t, []float64{0, 1, 3}, 1).Model(); m != StretchModel {
		t.Errorf("NewInstance's default model = %v, want StretchModel", m)
	}
	space, err := metric.Line([]float64{0, 1, 3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewInstance(space, 1, WithModel(DistanceModel+1)); err == nil {
		t.Error("NewInstance accepted a third cost model")
	}
	for _, m := range models {
		for _, d := range []float64{1e-300, 0.37, 1, 3, 1e307} {
			if got := m.Term(math.Inf(1), d); !math.IsInf(got, 1) {
				t.Errorf("%s: Term(+Inf, %g) = %v, want +Inf", m.Name(), d, got)
			}
			if got, lb := m.Term(d, d), m.LowerBound(d); got != lb {
				t.Errorf("%s: Term(%g, %g) = %v, LowerBound = %v", m.Name(), d, d, got, lb)
			}
			dGs := []float64{0, d / 2, d, math.Nextafter(d, math.Inf(1)), 2 * d, 1e300, math.MaxFloat64, math.Inf(1)}
			slices.Sort(dGs)
			prev := math.Inf(-1)
			for _, dG := range dGs {
				got := m.Term(dG, d)
				if got < prev {
					t.Errorf("%s: Term(%g, %g) = %v falls below %v", m.Name(), dG, d, got, prev)
				}
				prev = got
			}
		}
	}
}

func TestSocialCostEqualsSumOfPeerCosts(t *testing.T) {
	r := rng.New(5)
	space, err := metric.UniformPoints(r, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := NewInstance(space, 3)
	if err != nil {
		t.Fatal(err)
	}
	ev := NewEvaluator(inst)
	p := randomProfile(r, 8, 0.4)
	sum := Cost{}
	for i := 0; i < 8; i++ {
		c := ev.PeerCost(p, i)
		sum.Link += c.Link
		sum.Term += c.Term
	}
	sc := ev.SocialCost(p)
	if math.Abs(sc.Link-sum.Link) > 1e-9 {
		t.Errorf("Link: social %f vs sum %f", sc.Link, sum.Link)
	}
	if sc.Term != sum.Term && !(math.IsInf(sc.Term, 1) && math.IsInf(sum.Term, 1)) {
		if math.Abs(sc.Term-sum.Term) > 1e-9 {
			t.Errorf("Term: social %f vs sum %f", sc.Term, sum.Term)
		}
	}
	if sc.Link != inst.Alpha()*float64(p.LinkCount()) {
		t.Errorf("Link = %f, want α|E| = %f", sc.Link, inst.Alpha()*float64(p.LinkCount()))
	}
}

// randomProfile links each ordered pair independently with probability q.
func randomProfile(r *rng.RNG, n int, q float64) Profile {
	p := NewProfile(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && r.Bool(q) {
				_ = p.AddLink(i, j)
			}
		}
	}
	return p
}

func TestDistancesMatchDenseReference(t *testing.T) {
	// Cross-validate the public Distances entry point against the
	// retained dense O(n²) reference SSSP on random profiles.
	r := rng.New(9)
	for trial := 0; trial < 20; trial++ {
		n := 3 + r.Intn(10)
		space, err := metric.UniformPoints(r, n, 2)
		if err != nil {
			t.Fatal(err)
		}
		inst, err := NewInstance(space, 1)
		if err != nil {
			t.Fatal(err)
		}
		ev := NewEvaluator(inst)
		p := randomProfile(r, n, 0.35)
		for src := 0; src < n; src++ {
			want := append([]float64(nil), ev.ssspDense(p, src, -1, Strategy{})...)
			got, err := ev.Distances(p, src)
			if err != nil {
				t.Fatal(err)
			}
			if j, ok := distsEqual(got, want, diffTol); !ok {
				t.Fatalf("trial %d src %d: d[%d]=%v, dense reference %v", trial, src, j, got[j], want[j])
			}
		}
	}
}

func TestDistancesSourceValidation(t *testing.T) {
	inst := lineInstance(t, []float64{0, 1}, 1)
	ev := NewEvaluator(inst)
	if _, err := ev.Distances(NewProfile(2), 5); err == nil {
		t.Error("bad source should error")
	}
}

func TestQuickStretchAtLeastOne(t *testing.T) {
	// Property: every finite stretch term is ≥ 1 (triangle inequality).
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 3 + r.Intn(7)
		space, err := metric.UniformPoints(r, n, 2)
		if err != nil {
			return false
		}
		inst, err := NewInstance(space, 1)
		if err != nil {
			return false
		}
		ev := NewEvaluator(inst)
		p := randomProfile(r, n, 0.4)
		tm := ev.TermMatrix(p)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i == j {
					continue
				}
				if !math.IsInf(tm[i][j], 1) && tm[i][j] < 1-1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestQuickFullMeshStretchOne(t *testing.T) {
	// Property: the complete topology has every stretch exactly 1 and
	// social cost αn(n-1) + n(n-1).
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := 2 + r.Intn(8)
		space, err := metric.UniformPoints(r, n, 2)
		if err != nil {
			return false
		}
		alpha := r.Range(0, 10)
		inst, err := NewInstance(space, alpha)
		if err != nil {
			return false
		}
		ev := NewEvaluator(inst)
		p := NewProfile(n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if i != j {
					_ = p.AddLink(i, j)
				}
			}
		}
		sc := ev.SocialCost(p)
		pairs := float64(n * (n - 1))
		return math.Abs(sc.Term-pairs) < 1e-9 && math.Abs(sc.Link-alpha*pairs) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
