package construct

import (
	"errors"
	"fmt"

	"selfishnet/internal/core"
	"selfishnet/internal/dynamics"
	"selfishnet/internal/nash"
	"selfishnet/internal/rng"
)

// Candidate is one of the six Figure 3 cluster-level configurations that
// survive Lemma 5.2's structural filtering. It is determined by the top
// links of the two bottom clusters: Π1 always links to Πa and may add
// one of Πb/Πc; Π2 links to exactly one of Πb/Πc and never to Πa.
type Candidate struct {
	// ID is the paper's 1..6 numbering.
	ID int
	// Pi1Extra is the second top-cluster linked by Π1 (0 if none;
	// otherwise PiB or PiC).
	Pi1Extra Cluster
	// Pi2Target is the single top-cluster linked by Π2 (PiB or PiC).
	Pi2Target Cluster
}

// Candidates returns the six Figure 3 configurations in paper order:
//
//	1: Π1→{a},    Π2→{b}      4: Π1→{a,b}, Π2→{c}
//	2: Π1→{a},    Π2→{c}      5: Π1→{a,c}, Π2→{b}
//	3: Π1→{a,b},  Π2→{b}      6: Π1→{a,c}, Π2→{c}
func Candidates() []Candidate {
	return []Candidate{
		{ID: 1, Pi1Extra: 0, Pi2Target: PiB},
		{ID: 2, Pi1Extra: 0, Pi2Target: PiC},
		{ID: 3, Pi1Extra: PiB, Pi2Target: PiB},
		{ID: 4, Pi1Extra: PiB, Pi2Target: PiC},
		{ID: 5, Pi1Extra: PiC, Pi2Target: PiB},
		{ID: 6, Pi1Extra: PiC, Pi2Target: PiC},
	}
}

// String renders the candidate as e.g. "3: Π1→{Πa,Πb} Π2→{Πb}".
func (c Candidate) String() string {
	extra := ""
	if c.Pi1Extra != 0 {
		extra = "," + c.Pi1Extra.String()
	}
	return fmt.Sprintf("%d: Π1→{Πa%s} Π2→{%s}", c.ID, extra, c.Pi2Target)
}

// baseLinks is the inter-cluster skeleton present in every candidate,
// following Lemma 5.2 and connectivity: exactly one link in both
// directions between the neighboring cluster pairs (Πa,Πb), (Πb,Πc),
// (Π1,Π2), the mandated uplink Π1→Πa, and the downlink Πa→Π1 that any
// Nash needs for the top clusters to reach the bottom ones.
func baseLinks() []ClusterLink {
	return []ClusterLink{
		{PiA, PiB}, {PiB, PiA},
		{PiB, PiC}, {PiC, PiB},
		{Pi1, Pi2}, {Pi2, Pi1},
		{Pi1, PiA},
		{PiA, Pi1},
	}
}

// CandidateProfile realizes the candidate as a concrete strategy profile
// on the instance.
func (ik *Ik) CandidateProfile(c Candidate) (core.Profile, error) {
	links := baseLinks()
	if c.Pi1Extra != 0 {
		links = append(links, ClusterLink{Pi1, c.Pi1Extra})
	}
	links = append(links, ClusterLink{Pi2, c.Pi2Target})
	return ik.Realize(links)
}

// MatchCandidate projects a profile to cluster granularity and reports
// which candidate it realizes (0 if none): the skeleton must be present
// and the bottom-cluster top-links must match one of the six patterns.
func (ik *Ik) MatchCandidate(p core.Profile) (Candidate, bool, error) {
	links, err := ik.InterClusterLinks(p)
	if err != nil {
		return Candidate{}, false, err
	}
	have := make(map[ClusterLink]bool, len(links))
	for _, l := range links {
		have[l] = true
	}
	for _, base := range baseLinks() {
		if !have[base] {
			return Candidate{}, false, nil
		}
		delete(have, base)
	}
	for _, c := range Candidates() {
		want := map[ClusterLink]bool{{Pi2, c.Pi2Target}: true}
		if c.Pi1Extra != 0 {
			want[ClusterLink{Pi1, c.Pi1Extra}] = true
		}
		if len(have) != len(want) {
			continue
		}
		match := true
		for l := range want {
			if !have[l] {
				match = false
				break
			}
		}
		if match {
			return c, true, nil
		}
	}
	return Candidate{}, false, nil
}

// ErrNashExists is returned by certification when the exhaustive search
// finds a pure Nash equilibrium (so the parameters do not reproduce
// Theorem 5.1).
var ErrNashExists = errors.New("construct: instance has a pure Nash equilibrium")

// CertifyNoNash exhaustively enumerates the full profile space of the
// instance (feasible for k = 1, i.e. 5 peers and 2^20 profiles) and
// returns nil only when no pure Nash equilibrium exists — a
// machine-checked certificate of Theorem 5.1 for this instance.
func (ik *Ik) CertifyNoNash(maxProfiles int) error {
	ev := core.NewEvaluator(ik.Instance)
	eqs, err := nash.EnumerateEquilibria(ev, maxProfiles)
	if err != nil {
		return err
	}
	if len(eqs) > 0 {
		return fmt.Errorf("%w: e.g. %v", ErrNashExists, eqs[0])
	}
	return nil
}

// OscillationResult summarizes a best-response dynamics run on I_k.
type OscillationResult struct {
	Converged     bool
	CycleDetected bool
	CycleProven   bool
	CycleLength   int
	Steps         int
	// CandidateCycle lists the candidate IDs visited along the detected
	// cycle for states matching a Figure 3 configuration (0 for states
	// that match none).
	CandidateCycle []int
}

// Oscillate runs deterministic max-gain best-response dynamics with
// cycle detection from the given candidate and reports the loop found.
func (ik *Ik) Oscillate(start Candidate, maxSteps int) (OscillationResult, error) {
	p, err := ik.CandidateProfile(start)
	if err != nil {
		return OscillationResult{}, err
	}
	ev := core.NewEvaluator(ik.Instance)
	res, err := dynamics.Run(ev, p, dynamics.Config{
		Policy:       dynamics.MaxGain{},
		MaxSteps:     maxSteps,
		DetectCycles: true,
		Rand:         rng.New(1),
	})
	if err != nil {
		return OscillationResult{}, err
	}
	out := OscillationResult{
		Converged:     res.Converged,
		CycleDetected: res.CycleDetected,
		CycleProven:   res.CycleProven,
		CycleLength:   res.CycleLength,
		Steps:         res.Steps,
	}
	for _, q := range res.CycleProfiles {
		c, ok, err := ik.MatchCandidate(q)
		if err != nil {
			return OscillationResult{}, err
		}
		if ok {
			out.CandidateCycle = append(out.CandidateCycle, c.ID)
		} else {
			out.CandidateCycle = append(out.CandidateCycle, 0)
		}
	}
	return out, nil
}
