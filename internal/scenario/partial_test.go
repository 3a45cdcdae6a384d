package scenario

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	"selfishnet/internal/export"
)

// partialFixture runs the points-equality grid once cleanly: the
// per-point results in grid order plus the fault-free reference table
// every partial-assembly assertion compares against.
func partialFixture(t *testing.T) (Sweep, []PointResult, *export.Table) {
	t.Helper()
	sw := pointsTestSweep()
	want, err := sw.Run(Params{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	measures := effectiveMeasures(sw.Base)
	points := sw.Points()
	results := make([]PointResult, len(points))
	for i, spec := range points {
		if results[i], err = RunPointContext(context.Background(), spec, measures, 0); err != nil {
			t.Fatalf("point %d: %v", i, err)
		}
	}
	return sw, results, want
}

func encodeTable(t *testing.T, tb *export.Table) string {
	t.Helper()
	var buf bytes.Buffer
	if err := tb.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestAssemblePartialRowsAndNotes: failed points render as FailedCell
// placeholder rows, healthy rows stay byte-identical to the fault-free
// table, and the notes carry the structured report in rendered form.
func TestAssemblePartialRowsAndNotes(t *testing.T) {
	sw, results, want := partialFixture(t)
	failed := []FailedPoint{
		{Index: 2, Error: "boom", Attempts: 3},
		{Index: 5, Error: "kaput"},
	}
	tb, err := sw.AssemblePartial(results, failed)
	if err != nil {
		t.Fatal(err)
	}
	isFailed := map[int]bool{2: true, 5: true}
	for i, row := range tb.Rows {
		if isFailed[i] {
			for col, cell := range row {
				if cell != FailedCell {
					t.Errorf("failed row %d cell %d = %q, want %q", i, col, cell, FailedCell)
				}
			}
			continue
		}
		if got, w := fmt.Sprint(row), fmt.Sprint(want.Rows[i]); got != w {
			t.Errorf("healthy row %d = %s, want %s", i, got, w)
		}
	}
	wantNotes := []string{
		fmt.Sprintf("partial failure: 2 of %d point(s) quarantined; their rows read %q", len(results), FailedCell),
		"point 2 failed: boom (after 3 attempt(s))",
		"point 5 failed: kaput",
	}
	if len(tb.Notes) < len(wantNotes) {
		t.Fatalf("table notes %q, want the %d-line failure report appended", tb.Notes, len(wantNotes))
	}
	for i, w := range wantNotes {
		if got := tb.Notes[len(tb.Notes)-len(wantNotes)+i]; got != w {
			t.Errorf("note = %q, want %q", got, w)
		}
	}
}

// TestAssemblePartialEmptyFailedDelegates: with nothing failed the
// partial assembly is Assemble — byte-identical table, no extra notes.
func TestAssemblePartialEmptyFailedDelegates(t *testing.T) {
	sw, results, want := partialFixture(t)
	tb, err := sw.AssemblePartial(results, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got, w := encodeTable(t, tb), encodeTable(t, want); got != w {
		t.Errorf("AssemblePartial(results, nil) differs from the fault-free table:\ngot:\n%s\nwant:\n%s", got, w)
	}
}

// TestAssemblePartialRejectsBadInput: the failure list must be in
// range and strictly increasing (grid order), and the result slice
// must still cover the whole grid.
func TestAssemblePartialRejectsBadInput(t *testing.T) {
	sw, results, _ := partialFixture(t)
	bad := [][]FailedPoint{
		{{Index: 5, Error: "x"}, {Index: 2, Error: "y"}}, // out of order
		{{Index: 2, Error: "x"}, {Index: 2, Error: "y"}}, // duplicate
		{{Index: -1, Error: "x"}},                        // below range
		{{Index: len(results), Error: "x"}},              // past range
	}
	for _, failed := range bad {
		if _, err := sw.AssemblePartial(results, failed); err == nil {
			t.Errorf("AssemblePartial accepted failed list %+v", failed)
		}
	}
	if _, err := sw.AssemblePartial(results[:3], []FailedPoint{{Index: 0, Error: "x"}}); err == nil {
		t.Error("AssemblePartial accepted a truncated result slice")
	}
}

// TestRunPartialContextHealthy: with no failing points the keep-going
// runner is RunContext — byte-identical table, empty failure list.
func TestRunPartialContextHealthy(t *testing.T) {
	sw := pointsTestSweep()
	want, err := sw.Run(Params{}, 0)
	if err != nil {
		t.Fatal(err)
	}
	tb, failed, err := sw.RunPartialContext(context.Background(), Params{}, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(failed) != 0 {
		t.Fatalf("healthy run reported failures: %+v", failed)
	}
	if got, w := encodeTable(t, tb), encodeTable(t, want); got != w {
		t.Errorf("RunPartialContext table differs from Run:\ngot:\n%s\nwant:\n%s", got, w)
	}
}

// TestRunPartialContextValidates: sweep-level problems (an invalid
// spec) are still hard errors, not per-point failures.
func TestRunPartialContextValidates(t *testing.T) {
	sw := pointsTestSweep()
	sw.Base.Metric.Family = "no-such-family"
	if _, _, err := sw.RunPartialContext(context.Background(), Params{}, 0, nil); err == nil {
		t.Error("RunPartialContext ran a sweep with an invalid base spec")
	}
}

// failingSweep is a 2-seed × 2-n grid whose n=4 points (0 and 2) fail
// at run time: their star start names center 5, past the last peer.
func failingSweep() Sweep {
	return Sweep{
		Name: "failing-points",
		Base: Spec{
			Quick:  true,
			Metric: MetricSpec{Family: "uniform", N: 8},
			Game:   GameSpec{Alpha: 2},
			Start:  StartSpec{Kind: "star", Center: 5},
		},
		Ns:    []int{4, 8},
		Seeds: []uint64{1, 2},
	}
}

// TestSweepFailingPoints drives the failing-point path of both sweep
// entry points at widths 1 and 2: RunContext fails with the lowest
// failed index, RunPartialContext reports each failed point once with
// its hash and renders its row as FailedCell, and every healthy row
// equals the same point run alone. Progress counts every point.
func TestSweepFailingPoints(t *testing.T) {
	sw := failingSweep()
	points := sw.Points()
	const cause = "opt: star center 5 out of range [0,4)"
	for _, width := range []int{1, 2} {
		var calls int
		_, err := sw.RunContext(context.Background(), Params{}, width, func(done, total int) { calls++ })
		if err == nil || !strings.HasPrefix(err.Error(), "scenario: sweep point 0: ") || !strings.Contains(err.Error(), cause) {
			t.Fatalf("width %d: RunContext err = %v, want sweep point 0 failing with %q", width, err, cause)
		}
		if calls != len(points) {
			t.Errorf("width %d: RunContext progress fired %d times, want %d", width, calls, len(points))
		}

		tb, failed, err := sw.RunPartialContext(context.Background(), Params{}, width, nil)
		if err != nil {
			t.Fatalf("width %d: RunPartialContext: %v", width, err)
		}
		if len(failed) != 2 {
			t.Fatalf("width %d: failed = %+v, want points 0 and 2", width, failed)
		}
		for k, idx := range []int{0, 2} {
			hash, err := points[idx].Hash()
			if err != nil {
				t.Fatal(err)
			}
			f := failed[k]
			if f.Index != idx || f.Hash != hash || f.Attempts != 1 || !strings.Contains(f.Error, cause) {
				t.Errorf("width %d: failed[%d] = %+v, want index %d, hash %s, 1 attempt, error %q", width, k, f, idx, hash, cause)
			}
		}
		for i, row := range tb.Rows {
			if i == 0 || i == 2 {
				for col, cell := range row {
					if cell != FailedCell {
						t.Errorf("width %d: failed row %d cell %d = %q, want %q", width, i, col, cell, FailedCell)
					}
				}
				continue
			}
			alone, err := RunPointContext(context.Background(), points[i], sw.Measures(), 1)
			if err != nil {
				t.Fatalf("point %d alone: %v", i, err)
			}
			if got, want := fmt.Sprint(row), fmt.Sprint(alone.Row); got != want {
				t.Errorf("width %d: row %d = %s, want the point run alone: %s", width, i, got, want)
			}
		}
	}
}
