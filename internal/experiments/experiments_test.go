package experiments

import (
	"fmt"
	"strings"
	"testing"

	"selfishnet/internal/scenario"
)

func TestRegistryComplete(t *testing.T) {
	ids := scenario.IDs()
	if len(ids) != 13 {
		t.Fatalf("got %d experiments: %v", len(ids), ids)
	}
	for _, id := range ids {
		desc, err := scenario.Describe(id)
		if err != nil || desc == "" {
			t.Errorf("scenario.Describe(%q) = %q, %v", id, desc, err)
		}
	}
	if _, err := scenario.Describe("nope"); err == nil {
		t.Error("unknown id should error")
	}
	if _, err := scenario.Run("nope", scenario.Params{}); err == nil {
		t.Error("unknown id should error")
	}
}

func TestAllExperimentsQuick(t *testing.T) {
	// Every experiment must run in quick mode and produce a well-formed
	// table (headers, ≥1 row, consistent widths).
	for _, id := range scenario.IDs() {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			tb, err := scenario.Run(id, scenario.Params{Quick: true, Seed: 2})
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			if len(tb.Headers) == 0 || len(tb.Rows) == 0 {
				t.Fatalf("%s: empty table", id)
			}
			for ri, row := range tb.Rows {
				if len(row) != len(tb.Headers) {
					t.Fatalf("%s row %d has %d cells, want %d", id, ri, len(row), len(tb.Headers))
				}
			}
			if tb.Title == "" {
				t.Errorf("%s: missing title", id)
			}
			// Table must render.
			if txt := tb.Text(); !strings.Contains(txt, tb.Headers[0]) {
				t.Errorf("%s: render missing header", id)
			}
		})
	}
}

func TestE1BoundsHold(t *testing.T) {
	tb, err := E1Upper(scenario.Params{Quick: true, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	boundCol := -1
	for i, h := range tb.Headers {
		if h == "bound-ok" {
			boundCol = i
		}
	}
	if boundCol < 0 {
		t.Fatal("bound-ok column missing")
	}
	for _, row := range tb.Rows {
		if row[boundCol] != "true" {
			t.Errorf("Theorem 4.1 bound violated in row %v", row)
		}
	}
}

func TestE2AllNash(t *testing.T) {
	tb, err := E2Figure1(scenario.Params{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	nashCol := -1
	for i, h := range tb.Headers {
		if h == "nash" {
			nashCol = i
		}
	}
	for _, row := range tb.Rows {
		if row[nashCol] != "true" {
			t.Errorf("Lemma 4.2 violated in row %v", row)
		}
	}
}

func TestE5NeverConverges(t *testing.T) {
	tb, err := E5NoNash(scenario.Params{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	convCol := -1
	for i, h := range tb.Headers {
		if h == "converged" {
			convCol = i
		}
	}
	for _, row := range tb.Rows {
		if row[convCol] != "0" {
			t.Errorf("Theorem 5.1 violated: convergence in row %v", row)
		}
	}
}

func TestE6MatchesPaperAtK1(t *testing.T) {
	tb, err := E6CandidateCycle(scenario.Params{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	matchCol, kCol := -1, -1
	for i, h := range tb.Headers {
		switch h {
		case "match":
			matchCol = i
		case "k":
			kCol = i
		}
	}
	for _, row := range tb.Rows {
		if row[kCol] == "1" && row[matchCol] != "true" {
			t.Errorf("Figure 3 transition mismatch at k=1: %v", row)
		}
	}
}

func TestE11PriceOfStabilityIsOne(t *testing.T) {
	tb, err := E11Landscape(scenario.Params{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	posCol, poaCol := -1, -1
	for i, h := range tb.Headers {
		switch h {
		case "PoS":
			posCol = i
		case "PoA":
			poaCol = i
		}
	}
	for _, row := range tb.Rows {
		if row[posCol] != "1" {
			t.Errorf("PoS = %s on %v, expected exactly 1 on these instances", row[posCol], row[0])
		}
		if row[poaCol] == "NaN" {
			t.Errorf("PoA undefined on %v", row[0])
		}
	}
}

func TestE12HeuristicsNearExact(t *testing.T) {
	tb, err := E12Oracles(scenario.Params{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	hitCol, trialCol := -1, -1
	for i, h := range tb.Headers {
		switch h {
		case "exact-hits":
			hitCol = i
		case "trials":
			trialCol = i
		}
	}
	for _, row := range tb.Rows {
		if row[hitCol] == "0" {
			t.Errorf("oracle never matched exact in row %v", row)
		}
		if row[trialCol] == "0" {
			t.Errorf("no trials in row %v", row)
		}
	}
}

func TestE13StretchGrowsWithGamma(t *testing.T) {
	tb, err := E13Congestion(scenario.Params{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	stretchCol := -1
	for i, h := range tb.Headers {
		if h == "mean-stretch" {
			stretchCol = i
		}
	}
	var prev float64 = -1
	for _, row := range tb.Rows {
		var v float64
		if _, err := fmt.Sscanf(row[stretchCol], "%f", &v); err != nil {
			t.Fatalf("bad stretch cell %q", row[stretchCol])
		}
		if v < prev {
			t.Errorf("mean stretch decreased with γ: %v", tb.Rows)
		}
		prev = v
	}
}

func TestDeterministicTables(t *testing.T) {
	a, err := E4PriceOfAnarchy(scenario.Params{Quick: true, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := E4PriceOfAnarchy(scenario.Params{Quick: true, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if a.Text() != b.Text() {
		t.Error("same seed produced different tables")
	}
}
