package churn

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"testing"

	"selfishnet/internal/core"
	"selfishnet/internal/metric"
	"selfishnet/internal/rng"
)

// undirectedChurnWork renders one line per undirected churn run on
// uniform 2-D points, n ∈ {12, 16, 20}, α ∈ {0.4, 1, 3}, three seeds:
// the events, the repairs, the tail's moves and stability, and the
// final profile's hash and social cost. Undirected games repair and
// stabilize by the masked hill climb, so these lines pin its steps.
func undirectedChurnWork(t *testing.T) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, n := range []int{12, 16, 20} {
		for _, alpha := range []float64{0.4, 1, 3} {
			for _, seed := range []uint64{3, 17, 41} {
				space, err := metric.UniformPoints(rng.New(seed*1000+uint64(n)), n, 2)
				if err != nil {
					t.Fatal(err)
				}
				inst, err := core.NewInstance(space, alpha, core.WithUndirected())
				if err != nil {
					t.Fatal(err)
				}
				res, err := RunContext(context.Background(), Config{
					Instance: inst,
					Start:    nearestStart(t, inst),
					Rate:     0.1,
					Duration: 5,
					Repair:   RepairSelfish,
					Seed:     seed,
				})
				if err != nil {
					t.Fatalf("n=%d alpha=%g seed=%d: %v", n, alpha, seed, err)
				}
				fmt.Fprintf(&buf, "n=%d alpha=%g seed=%d events=%d repairs=%d tail-moves=%d tail-stable=%t final=%016x cost=%v+%v\n",
					n, alpha, seed, res.Events, res.Repairs, res.TailMoves, res.TailStable,
					res.Final.Hash(), res.FinalCost.Link, res.FinalCost.Term)
			}
		}
	}
	return buf.Bytes()
}

// TestUndirectedChurnGolden pins undirected churn runs end to end. The
// golden was rendered while every undirected best response still
// scored each candidate strategy by a fresh SSSP.
func TestUndirectedChurnGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/undirected_churn.golden")
	if err != nil {
		t.Fatal(err)
	}
	if got := undirectedChurnWork(t); !bytes.Equal(got, want) {
		t.Fatalf("undirected churn runs moved\n--- got\n%s--- want\n%s", got, want)
	}
}
