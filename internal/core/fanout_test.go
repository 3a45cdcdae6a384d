package core

// Width tests for the fan-out of the streamed path: SocialCostBanded
// spreads its rows across min(GOMAXPROCS, claims) workers, capped by
// streamRowBudget, and must return the same bits at every width. Core
// runs no test in parallel, so each test sets GOMAXPROCS itself; width
// 3 is more workers than a two-core machine has cores. The banded
// differential (msbfs_test.go) runs its cases at the same widths.

import (
	"runtime"
	"testing"

	"selfishnet/internal/metric"
)

// fanOutWidths are the GOMAXPROCS values the width tests run at.
var fanOutWidths = []int{1, 2, 3}

// atWidth runs f with GOMAXPROCS set to w and restores it on return.
func atWidth(w int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(w))
	f()
}

// TestFanOutClosedFormsAtWidths folds the star and the chain, directed
// and undirected, at a size whose fold spans several chunks, at bands
// straddling the 64-source chunk and at every width: the banded fold
// must equal the closed form with ==. The diff regimes get the same
// width sweep in TestSocialCostBandedMatchesSlabBitForBit.
func TestFanOutClosedFormsAtWidths(t *testing.T) {
	const n, alpha = 200, 2.5
	space, err := metric.UniformImplicit(n)
	if err != nil {
		t.Fatal(err)
	}
	star, err := StarProfile(n)
	if err != nil {
		t.Fatal(err)
	}
	chain, err := ChainProfile(n)
	if err != nil {
		t.Fatal(err)
	}
	for _, undirected := range []bool{false, true} {
		var opts []Option
		if undirected {
			opts = append(opts, WithUndirected())
		}
		inst, err := NewInstance(space, alpha, opts...)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			name string
			p    Profile
			want Cost
		}{
			{"star", star, StarSocialCost(n, alpha)},
			{"chain", chain, ChainSocialCost(n, alpha)},
		} {
			for _, w := range fanOutWidths {
				atWidth(w, func() {
					for _, band := range []int{1, 63, 64, 65, n} {
						got, err := NewEvaluator(inst).SocialCostBanded(c.p, band)
						if err != nil {
							t.Fatal(err)
						}
						if got != c.want {
							t.Errorf("%s undirected=%v width %d band %d: %+v, closed form %+v",
								c.name, undirected, w, band, got, c.want)
						}
					}
				})
			}
		}
	}
}

// TestFanOutWidthRowBudget pins the width of the streamed fold: it is
// min(GOMAXPROCS, claims), 1 on the slab path, and capped so the
// workers' level tables fit streamRowBudget. At n = 2^19 one 64-source
// claim holds 128 MiB of levels, so four workers fit the budget and all
// three of GOMAXPROCS 3 run; at n = 2^20 two fit, and at n = 2^21 one
// claim fills it and the fold runs on the caller alone.
func TestFanOutWidthRowBudget(t *testing.T) {
	for _, c := range []struct {
		n, band, want int
	}{
		{200, 0, 1},
		{200, 1, 3},
		{200, 64, 3},
		{100, 64, 2},
		{64, 64, 1},
		{64, 63, 2},
		{1 << 19, 1, 3},
		{1 << 19, 64, 3},
		{1 << 19, 1 << 19, 3},
		{1 << 20, 32, 3},
		{1 << 20, 64, 2},
		{1 << 21, 32, 2},
		{1 << 21, 64, 1},
	} {
		space, err := metric.UniformImplicit(c.n)
		if err != nil {
			t.Fatal(err)
		}
		inst, err := NewInstance(space, 2)
		if err != nil {
			t.Fatal(err)
		}
		atWidth(3, func() {
			if got := inst.streamWidth(c.band); got != c.want {
				t.Errorf("n=%d band %d at GOMAXPROCS 3: width %d, want %d", c.n, c.band, got, c.want)
			}
		})
	}
}
