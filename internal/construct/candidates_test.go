package construct

import (
	"testing"

	"selfishnet/internal/bestresponse"
	"selfishnet/internal/core"
)

func TestOscillateRecordsCandidateCycle(t *testing.T) {
	ik := defaultIk(t, 1)
	res, err := ik.Oscillate(Candidates()[0], 400)
	if err != nil {
		t.Fatal(err)
	}
	if !res.CycleDetected {
		t.Fatal("no cycle")
	}
	if len(res.CandidateCycle) != res.CycleLength {
		t.Errorf("CandidateCycle has %d entries for cycle length %d",
			len(res.CandidateCycle), res.CycleLength)
	}
	// Entries are 0 (outside candidate set) or valid candidate IDs.
	for _, id := range res.CandidateCycle {
		if id < 0 || id > 6 {
			t.Errorf("bad candidate id %d in cycle", id)
		}
	}
}

func TestSettledCandidateIsStableForTops(t *testing.T) {
	// After settling, no non-bottom peer may have an improving exact
	// deviation (that is the definition of settled).
	ik := defaultIk(t, 1)
	p, ok, err := ik.SettledCandidateProfile(Candidates()[2], 60)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("settlement did not converge")
	}
	pi1, pi2 := ik.bottomLeads()
	ev := newEvaluatorForTest(t, ik)
	for peer := 0; peer < ik.Instance.N(); peer++ {
		if peer == pi1 || peer == pi2 {
			continue
		}
		gain := exactGain(t, ev, p, peer)
		if gain > 1e-9 {
			t.Errorf("settled top peer %d still improves by %f", peer, gain)
		}
	}
}

func TestMatchSettledCandidateIdentifiesBottomPatterns(t *testing.T) {
	ik := defaultIk(t, 1)
	for _, c := range Candidates() {
		p, ok, err := ik.SettledCandidateProfile(c, 60)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("candidate %d did not settle", c.ID)
		}
		got, matched, err := ik.MatchSettledCandidate(p)
		if err != nil {
			t.Fatal(err)
		}
		if !matched || got.ID != c.ID {
			t.Errorf("candidate %d settled profile matched %v (ok=%v)", c.ID, got, matched)
		}
	}
}

// newEvaluatorForTest builds an evaluator for the instance (helper).
func newEvaluatorForTest(t *testing.T, ik *Ik) *core.Evaluator {
	t.Helper()
	return core.NewEvaluator(ik.Instance)
}

// exactGain returns the peer's exact best-response improvement (helper).
func exactGain(t *testing.T, ev *core.Evaluator, p core.Profile, peer int) float64 {
	t.Helper()
	gain, _, err := bestresponse.Improvement(ev, p, peer, &bestresponse.Exact{})
	if err != nil {
		t.Fatal(err)
	}
	return gain
}
