package experiments

import (
	"bytes"
	"strings"
	"testing"

	"selfishnet/internal/export"
	"selfishnet/internal/scenario"
)

// renderTables serializes tables to CSV bytes, the exported form whose
// bit-identity the parallel engine guarantees.
func renderTables(t *testing.T, tables []*export.Table) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, tb := range tables {
		if tb == nil {
			t.Fatal("nil table")
		}
		if err := tb.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

// TestRunAllParallelismByteIdentical is the engine's determinism
// contract: for every registered experiment, RunAll at parallelism 1
// and at higher widths must export byte-identical tables (Quick mode).
func TestRunAllParallelismByteIdentical(t *testing.T) {
	params := scenario.Params{Quick: true, Seed: 1}
	seq, err := scenario.RunAll(nil, params, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != len(scenario.IDs()) {
		t.Fatalf("sequential RunAll returned %d tables, want %d", len(seq), len(scenario.IDs()))
	}
	want := renderTables(t, seq)

	for _, par := range []int{2, 4, 13} {
		got, err := scenario.RunAll(nil, params, par)
		if err != nil {
			t.Fatal(err)
		}
		if rendered := renderTables(t, got); !bytes.Equal(rendered, want) {
			t.Fatalf("parallelism %d: exported tables differ from sequential run\n"+
				"first divergence near byte %d", par, firstDiff(rendered, want))
		}
	}
}

func firstDiff(a, b []byte) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

// TestRunAllMatchesRun confirms RunAll produces the same table as the
// single-experiment Run entry point for each id.
func TestRunAllMatchesRun(t *testing.T) {
	params := scenario.Params{Quick: true, Seed: 7}
	ids := []string{"e2-fig1", "e4-poa", "e8-dyn"}
	tables, err := scenario.RunAll(ids, params, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		want, err := scenario.Run(id, params)
		if err != nil {
			t.Fatal(err)
		}
		var got, exp bytes.Buffer
		if err := tables[i].WriteCSV(&got); err != nil {
			t.Fatal(err)
		}
		if err := want.WriteCSV(&exp); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), exp.Bytes()) {
			t.Fatalf("%s: RunAll table differs from Run table", id)
		}
	}
}

// TestRunAllOrderAndValidation checks input-order results and upfront
// id validation.
func TestRunAllOrderAndValidation(t *testing.T) {
	params := scenario.Params{Quick: true, Seed: 1}
	ids := []string{"e6-cycle", "e2-fig1"} // deliberately unsorted
	tables, err := scenario.RunAll(ids, params, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tables[0].Title, "E6") || !strings.Contains(tables[1].Title, "E2") {
		t.Fatalf("tables out of input order: %q, %q", tables[0].Title, tables[1].Title)
	}

	if _, err := scenario.RunAll([]string{"e2-fig1", "nope"}, params, 2); err == nil {
		t.Fatal("unknown id not rejected")
	}
}
