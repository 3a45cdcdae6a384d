package nash

import (
	"errors"
	"math"
	"testing"

	"selfishnet/internal/bestresponse"
	"selfishnet/internal/core"
	"selfishnet/internal/metric"
)

func lineEvaluator(t *testing.T, positions []float64, alpha float64) *core.Evaluator {
	t.Helper()
	s, err := metric.Line(positions)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := core.NewInstance(s, alpha)
	if err != nil {
		t.Fatal(err)
	}
	return core.NewEvaluator(inst)
}

func TestTwoPeerMutualLinksIsNash(t *testing.T) {
	ev := lineEvaluator(t, []float64{0, 1}, 2)
	p := core.NewProfile(2)
	_ = p.AddLink(0, 1)
	_ = p.AddLink(1, 0)
	ok, err := IsNash(ev, p)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("mutual links on n=2 must be Nash")
	}
	rep, err := Check(ev, p, &bestresponse.Exact{}, bestresponse.Tolerance)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Stable || !rep.Exact || rep.Epsilon() != 0 {
		t.Fatalf("report = %+v", rep)
	}
	if len(rep.Peers) != 2 {
		t.Fatalf("peer reports = %d", len(rep.Peers))
	}
}

func TestEmptyProfileIsNotNash(t *testing.T) {
	ev := lineEvaluator(t, []float64{0, 1}, 2)
	p := core.NewProfile(2)
	ok, err := IsNash(ev, p)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("empty profile cannot be Nash (disconnected)")
	}
	rep, err := Check(ev, p, &bestresponse.Exact{}, bestresponse.Tolerance)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stable {
		t.Fatal("report should be unstable")
	}
	if !math.IsInf(rep.MaxGain, 1) {
		t.Errorf("MaxGain = %f, want +Inf (restores reachability)", rep.MaxGain)
	}
}

func TestOverlinkedProfileIsNotNash(t *testing.T) {
	// On a cheap collinear line with large α, a full mesh wastes links:
	// dropping the far link and routing through the middle peer saves α
	// at zero stretch penalty.
	ev := lineEvaluator(t, []float64{0, 1, 2}, 10)
	p := core.NewProfile(3)
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			if i != j {
				_ = p.AddLink(i, j)
			}
		}
	}
	ok, err := IsNash(ev, p)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("full mesh on a collinear line with α=10 should not be Nash")
	}
}

func TestChainOnLineIsNash(t *testing.T) {
	// Evenly spaced line, both-neighbor chain: all stretches are 1 (the
	// line is collinear), so no peer can reduce stretch, and dropping any
	// link disconnects someone. With moderate α this is a Nash
	// equilibrium; it is also the paper's optimal topology G̃.
	ev := lineEvaluator(t, []float64{0, 1, 2, 3}, 2)
	p := core.NewProfile(4)
	for i := 0; i < 3; i++ {
		_ = p.AddLink(i, i+1)
		_ = p.AddLink(i+1, i)
	}
	ok, err := IsNash(ev, p)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("both-neighbor chain on an even line should be Nash")
	}
}

func TestCheckValidation(t *testing.T) {
	ev := lineEvaluator(t, []float64{0, 1}, 1)
	if _, err := Check(ev, core.NewProfile(3), &bestresponse.Exact{}, 0); err == nil {
		t.Error("size mismatch should error")
	}
	if _, err := Check(ev, core.NewProfile(2), nil, 0); err == nil {
		t.Error("nil oracle should error")
	}
	if _, err := IsNash(ev, core.NewProfile(5)); err == nil {
		t.Error("size mismatch should error")
	}
}

func TestHeuristicCheckIsNotExact(t *testing.T) {
	ev := lineEvaluator(t, []float64{0, 1}, 1)
	p := core.NewProfile(2)
	_ = p.AddLink(0, 1)
	_ = p.AddLink(1, 0)
	rep, err := Check(ev, p, &bestresponse.LocalSearch{}, bestresponse.Tolerance)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Exact {
		t.Error("local-search verdicts must not claim exactness")
	}
	if rep.Oracle != "local-search" {
		t.Errorf("oracle name = %q", rep.Oracle)
	}
}

func TestProfileSpaceSize(t *testing.T) {
	if got := core.ProfileSpaceSize(2); got != 4 {
		t.Errorf("n=2: %g, want 4", got)
	}
	if got := core.ProfileSpaceSize(3); got != 64 {
		t.Errorf("n=3: %g, want 64", got)
	}
	if got := core.ProfileSpaceSize(9); !math.IsInf(got, 1) {
		t.Errorf("n=9 should overflow to +Inf, got %g", got)
	}
}

func TestEnumerateEquilibriaTwoPeers(t *testing.T) {
	ev := lineEvaluator(t, []float64{0, 1}, 2)
	eqs, err := EnumerateEquilibria(ev, 0)
	if err != nil {
		t.Fatal(err)
	}
	// The only Nash on two peers is mutual linking: every other profile
	// leaves someone disconnected.
	if len(eqs) != 1 {
		t.Fatalf("found %d equilibria, want 1", len(eqs))
	}
	if !eqs[0].HasLink(0, 1) || !eqs[0].HasLink(1, 0) {
		t.Fatalf("equilibrium = %v", eqs[0])
	}
}

func TestEnumerateEquilibriaThreePeersContainsChain(t *testing.T) {
	// On the evenly spaced line with α = 2, the both-neighbor chain is a
	// Nash equilibrium and enumeration must find it (and verify every
	// returned profile as Nash).
	ev := lineEvaluator(t, []float64{0, 1, 2}, 2)
	eqs, err := EnumerateEquilibria(ev, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(eqs) == 0 {
		t.Fatal("expected at least one equilibrium")
	}
	chainSeen := false
	for _, q := range eqs {
		ok, err := IsNash(ev, q)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("enumeration returned non-Nash profile %v", q)
		}
		if q.HasLink(0, 1) && q.HasLink(1, 0) && q.HasLink(1, 2) && q.HasLink(2, 1) && q.LinkCount() == 4 {
			chainSeen = true
		}
	}
	if !chainSeen {
		t.Error("chain equilibrium not found by enumeration")
	}
}

func TestEnumerateEquilibriaBudget(t *testing.T) {
	ev := lineEvaluator(t, []float64{0, 1, 2, 4}, 1)
	_, err := EnumerateEquilibria(ev, 100) // n=4 → 4096 profiles > 100
	if !errors.Is(err, core.ErrSpaceTooLarge) {
		t.Fatalf("err = %v, want ErrSpaceTooLarge", err)
	}
}

func TestEpsilonNashReporting(t *testing.T) {
	// Uneven line: peer 2 sits just beyond peer 1. A chain is stable for
	// large α; with a small α the far peers prefer direct links, and
	// Epsilon quantifies by how much.
	ev := lineEvaluator(t, []float64{0, 1, 1.5, 4}, 0.1)
	p := core.NewProfile(4)
	for i := 0; i < 3; i++ {
		_ = p.AddLink(i, i+1)
		_ = p.AddLink(i+1, i)
	}
	rep, err := Check(ev, p, &bestresponse.Exact{}, bestresponse.Tolerance)
	if err != nil {
		t.Fatal(err)
	}
	// The line is collinear so all stretches are already 1; adding links
	// only costs α. The chain must therefore be stable even at α = 0.1.
	if !rep.Stable {
		t.Fatalf("chain unstable: %+v", rep)
	}
	if rep.Epsilon() != 0 {
		t.Errorf("Epsilon = %f, want 0", rep.Epsilon())
	}
}
