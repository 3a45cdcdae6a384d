package core

// Tests for the deviation batches an attached DynEval lends its rows
// to: rest row k is the engine's own row k exactly when no link of the
// deviating peer is tight on it, every other row settles afresh, and
// either way every rest row == a fresh evaluator's (+Inf equal to +Inf).

import (
	"testing"

	"selfishnet/internal/rng"
)

// isEngineRow reports whether row is a view of the engine's row k.
func isEngineRow(dy *DynEval, k int, row []float64) bool {
	return len(row) > 0 && &row[0] == &dy.Row(k)[0]
}

// checkEngineBatch compares peer i's batch on ev (which dy may be
// attached to) with a batch on the engine-free evaluator fresh, row by
// row, and checks which rows came from the engine: the rows on which no
// link of i is tight when engineRows, none otherwise. It returns how
// many rows the engine lent.
func checkEngineBatch(t *testing.T, ev, fresh *Evaluator, dy *DynEval, p Profile, i int, engineRows bool) int {
	t.Helper()
	got := ev.NewDeviationBatch(p, i)
	want := fresh.NewDeviationBatch(p, i)
	if got == nil || want == nil {
		t.Fatal("batch unexpectedly unsupported")
	}
	lent := 0
	for k := range want.rest {
		if k == i {
			if got.rest[k] != nil {
				t.Fatalf("peer %d: own rest row is not nil", i)
			}
			continue
		}
		if j, ok := distsIdentical(got.rest[k], want.rest[k]); !ok {
			t.Fatalf("peer %d row %d: engine-backed d[%d]=%v, fresh d[%d]=%v",
				i, k, j, got.rest[k][j], j, want.rest[k][j])
		}
		fromEngine := isEngineRow(dy, k, got.rest[k])
		if fromEngine != (engineRows && !dy.tightLink(k, i)) {
			t.Fatalf("peer %d row %d: read from the engine = %t, tight link = %t, engine rows = %t",
				i, k, fromEngine, dy.tightLink(k, i), engineRows)
		}
		if fromEngine {
			lent++
		}
	}
	return lent
}

// TestEngineBatchMatchesFreshBatch drives a move sequence through a
// DynEval attached to its evaluator and checks every rest row of the
// batches built on the engine's profile against an engine-free
// evaluator's, and that the engine lent exactly the rows with no tight
// link of the deviating peer.
func TestEngineBatchMatchesFreshBatch(t *testing.T) {
	r := rng.New(41)
	for trial := 0; trial < 4; trial++ {
		c := diffCase{n: 8 + r.Intn(12), linkProb: 0.1 + 0.3*r.Float64()}
		inst := buildDiffInstance(t, r, c)
		ev := NewEvaluator(inst)
		fresh := NewEvaluator(inst)
		p := randomDiffProfile(r, c.n, c.linkProb)
		dy, err := NewDynEval(ev, p)
		if err != nil {
			t.Fatal(err)
		}
		if ev.dyn != dy {
			t.Fatal("directed congestion-free instance must attach the engine")
		}
		lent, settled := 0, 0
		for move := 0; move < 20; move++ {
			for probe := 0; probe < 3; probe++ {
				i := r.Intn(c.n)
				before := dy.Stats()
				l := checkEngineBatch(t, ev, fresh, dy, p, i, true)
				st := dy.Stats()
				if st.RowsReused-before.RowsReused != l || st.RowsSettled-before.RowsSettled != c.n-1-l || st.RowsRelaxed != 0 {
					t.Fatalf("trial %d move %d: stats %+v → %+v for %d rows lent", trial, move, before, st, l)
				}
				lent += l
				settled += c.n - 1 - l
			}
			mover := r.Intn(c.n)
			alt := mutateStrategy(r, p.Strategy(mover), c.n, mover)
			if err := p.SetStrategy(mover, alt); err != nil {
				t.Fatal(err)
			}
			if err := dy.Apply(mover, alt); err != nil {
				t.Fatal(err)
			}
		}
		if lent == 0 || settled == 0 {
			t.Fatalf("trial %d: %d rows lent, %d settled: both paths must run", trial, lent, settled)
		}
		dy.Close()
	}
}

// TestEngineBatchSoundAcrossIndexReuse is the churn-seam script: a
// leave clears index v (the peer and every link to it), a later join
// reuses the same index with different links. After every single Apply
// every peer's engine-backed batch must match an engine-free one.
func TestEngineBatchSoundAcrossIndexReuse(t *testing.T) {
	r := rng.New(89)
	n := 14
	c := diffCase{n: n, linkProb: 0.3}
	inst := buildDiffInstance(t, r, c)
	ev := NewEvaluator(inst)
	fresh := NewEvaluator(inst)
	p := randomDiffProfile(r, n, c.linkProb)
	dy, err := NewDynEval(ev, p)
	if err != nil {
		t.Fatal(err)
	}
	defer dy.Close()

	apply := func(mover int, alt Strategy) {
		t.Helper()
		if err := p.SetStrategy(mover, alt); err != nil {
			t.Fatal(err)
		}
		if err := dy.Apply(mover, alt); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			checkEngineBatch(t, ev, fresh, dy, p, i, true)
		}
	}
	for cycle := 0; cycle < 4; cycle++ {
		// Leave: peer v drops all links, every owner drops its link to v.
		v := r.Intn(n)
		apply(v, Strategy{})
		for u := 0; u < n; u++ {
			if u != v && p.Strategy(u).Contains(v) {
				s := p.Strategy(u).Clone()
				s.Remove(v)
				apply(u, s)
			}
		}
		// Join reusing index v: fresh links for v, and a couple of
		// incumbents pick v back up.
		apply(v, randomStrategy(r, n, v, 0.4))
		for picks := 0; picks < 2; picks++ {
			u := r.Intn(n)
			if u == v {
				continue
			}
			s := p.Strategy(u).Clone()
			s.Add(v)
			apply(u, s)
		}
	}
}

// TestEngineBatchOtherProfileSettlesEveryRow: a batch on a profile other
// than the attached engine's borrows no row and counts nothing.
func TestEngineBatchOtherProfileSettlesEveryRow(t *testing.T) {
	r := rng.New(97)
	c := diffCase{n: 16, linkProb: 0.2}
	inst := buildDiffInstance(t, r, c)
	ev := NewEvaluator(inst)
	fresh := NewEvaluator(inst)
	p := randomDiffProfile(r, c.n, c.linkProb)
	dy, err := NewDynEval(ev, p)
	if err != nil {
		t.Fatal(err)
	}
	defer dy.Close()
	q := p.Clone()
	for {
		mover := r.Intn(c.n)
		if err := q.SetStrategy(mover, mutateStrategy(r, q.Strategy(mover), c.n, mover)); err != nil {
			t.Fatal(err)
		}
		if !q.Equal(p) {
			break
		}
	}
	for i := 0; i < c.n; i++ {
		checkEngineBatch(t, ev, fresh, dy, q, i, false)
	}
	if st := dy.Stats(); st != (BatchStats{}) {
		t.Fatalf("batches on another profile counted %+v", st)
	}
	// The engine's own profile still lends its rows.
	lent := 0
	for i := 0; i < c.n; i++ {
		lent += checkEngineBatch(t, ev, fresh, dy, p, i, true)
	}
	if lent == 0 {
		t.Fatal("no row lent on the engine's own profile")
	}
}

// TestEngineBatchDetachedByClose: Close detaches the engine, after which
// the evaluator's batches settle every row and the engine counts nothing.
func TestEngineBatchDetachedByClose(t *testing.T) {
	r := rng.New(101)
	c := diffCase{n: 15, linkProb: 0.25}
	inst := buildDiffInstance(t, r, c)
	ev := NewEvaluator(inst)
	fresh := NewEvaluator(inst)
	p := randomDiffProfile(r, c.n, c.linkProb)
	dy, err := NewDynEval(ev, p)
	if err != nil {
		t.Fatal(err)
	}
	checkEngineBatch(t, ev, fresh, dy, p, 0, true)
	before := dy.Stats()
	dy.Close()
	if ev.dyn != nil {
		t.Fatal("Close must detach the engine")
	}
	for i := 0; i < c.n; i++ {
		checkEngineBatch(t, ev, fresh, dy, p, i, false)
	}
	if st := dy.Stats(); st != before {
		t.Fatalf("a closed engine counted rows: %+v → %+v", before, st)
	}
	// Closing an engine that another one replaced leaves the newer one
	// attached.
	newer, err := NewDynEval(ev, p)
	if err != nil {
		t.Fatal(err)
	}
	dy.Close()
	if ev.dyn != newer {
		t.Fatal("closing a replaced engine detached its successor")
	}
	newer.Close()
}
