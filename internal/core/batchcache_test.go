package core

import (
	"testing"

	"selfishnet/internal/rng"
)

// TestBatchCachePeerVersionSoundAcrossIndexReuse is the adversarial
// churn-seam test for the cache: a leave clears index v (the peer and
// every link to it), a later join reuses the same index with different
// links. After every single Apply in the script, (a) cached batch
// evals must equal a cache-free evaluator's, and (b) any peer whose
// PeerVersion is unchanged since its snapshot must still serve the
// snapshotted evals — index reuse must never alias a stale environment
// into a stable version.
func TestBatchCachePeerVersionSoundAcrossIndexReuse(t *testing.T) {
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
	cache := dy.Cache()
	if cache == nil {
		t.Fatal("directed congestion-free instance must attach a BatchCache")
	}

	type snapshot struct {
		version uint64
		cands   []Strategy
		evals   []Eval
	}
	snaps := make([]snapshot, n)
	takeSnap := func(i int) {
		b := ev.NewDeviationBatch(p, i)
		s := snapshot{version: cache.PeerVersion(i)}
		for k := 0; k < 4; k++ {
			cand := randomStrategy(r, n, i, 0.4)
			s.cands = append(s.cands, cand)
			s.evals = append(s.evals, b.Eval(cand))
		}
		snaps[i] = s
	}
	for i := 0; i < n; i++ {
		takeSnap(i)
	}

	apply := func(mover int, alt Strategy) {
		t.Helper()
		if err := p.SetStrategy(mover, alt); err != nil {
			t.Fatal(err)
		}
		if _, err := dy.Apply(mover, alt); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			got := ev.NewDeviationBatch(p, i)
			want := fresh.NewDeviationBatch(p, i)
			probe := randomStrategy(r, n, i, 0.5)
			if ge, we := got.Eval(probe), want.Eval(probe); ge != we {
				t.Fatalf("peer %d after move by %d: cached eval %+v, fresh %+v", i, mover, ge, we)
			}
			if cache.PeerVersion(i) == snaps[i].version {
				b := ev.NewDeviationBatch(p, i)
				for k, cand := range snaps[i].cands {
					if got := b.Eval(cand); got != snaps[i].evals[k] {
						t.Fatalf("peer %d: version stable at %d but eval drifted: %+v vs %+v",
							i, snaps[i].version, got, snaps[i].evals[k])
					}
				}
			} else {
				takeSnap(i)
			}
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
