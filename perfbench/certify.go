package main

import (
	"fmt"
	"time"

	"selfishnet/internal/bestresponse"
	"selfishnet/internal/core"
	"selfishnet/internal/metric"
	"selfishnet/internal/rng"
)

// The certify-large sizes: the star's BFS has depth 2 and dense
// frontiers, the chain's depth n and sparse ones, so the banded
// multi-source fold is exercised both ways. band is `topogame
// certify`'s default resident row count.
const (
	certifyStarN  = 16384
	certifyChainN = 8192
	certifyBand   = 64
)

// certifyCase is one topology to certify on the implicit unit metric.
type certifyCase struct {
	topology string
	n        int
	alpha    float64
	peers    []int // per-peer spot checks through the streamed evaluator
	p        core.Profile
	ev       *core.Evaluator
}

// certifyInputs draws α and the spot-check peers from the seed.
func certifyInputs(seed uint64) []certifyCase {
	r := rng.New(seed)
	mk := func(topology string, n int) certifyCase {
		return certifyCase{
			topology: topology,
			n:        n,
			alpha:    r.Range(1, 4),
			peers:    []int{0, 1, n / 2, n - 1, r.Intn(n), r.Intn(n)},
		}
	}
	return []certifyCase{mk("star", certifyStarN), mk("chain", certifyChainN)}
}

// buildCertify is the set-up of `topogame certify`: the profile and the
// O(n) instance on the implicit unit metric.
func buildCertify(cases []certifyCase) ([]certifyCase, error) {
	out := append([]certifyCase(nil), cases...)
	for i := range out {
		c := &out[i]
		var err error
		if c.topology == "star" {
			c.p, err = core.StarProfile(c.n)
		} else {
			c.p, err = core.ChainProfile(c.n)
		}
		if err != nil {
			return nil, err
		}
		space, err := metric.UniformImplicit(c.n)
		if err != nil {
			return nil, err
		}
		inst, err := core.NewInstance(space, c.alpha)
		if err != nil {
			return nil, err
		}
		c.ev = core.NewEvaluator(inst)
	}
	return out, nil
}

// certifyOutput is what one certification produced, checked after the
// timed region.
type certifyOutput struct {
	cert     core.Certification
	banded   core.Cost
	peers    []core.Eval
	witness  core.Eval
	foldErr  error
	certErr  error
	topology string
}

// certifyOnce runs the `topogame certify` path for one topology: the
// closed-form certification, the banded social cost over all n² pairs,
// then the streamed per-peer spot checks and witness replay.
func certifyOnce(tr *tracer, c certifyCase) certifyOutput {
	out := certifyOutput{topology: c.topology}
	s := tr.begin("core.certify", 0, 0)
	s.Attr = c.topology
	if c.topology == "star" {
		out.cert, out.certErr = core.CertifyStar(c.n, c.alpha, bestresponse.Tolerance)
	} else {
		out.cert, out.certErr = core.CertifyChain(c.n, c.alpha, bestresponse.Tolerance)
	}
	tr.end(s)
	if out.certErr != nil {
		return out
	}
	s = tr.begin("core.fold", 0, 0)
	s.Attr = c.topology
	out.banded, out.foldErr = c.ev.SocialCostBanded(c.p, certifyBand)
	tr.end(s)
	s = tr.begin("core.streamed", 0, 0)
	s.Attr = c.topology
	for _, i := range c.peers {
		out.peers = append(out.peers, c.ev.PeerEvalStreamed(c.p, i))
	}
	if !out.cert.Stable {
		out.witness = c.ev.DeviationEvalStreamed(c.p, out.cert.Deviator, out.cert.Witness)
	}
	tr.end(s)
	return out
}

// checkCertify holds the outputs to the house differential: closed
// form == banded kernel == streamed evaluator, as `topogame certify`
// checks them.
func checkCertify(rep *report, c certifyCase, out certifyOutput) {
	switch {
	case out.certErr != nil:
		rep.fail("%s certify: %v", c.topology, out.certErr)
		return
	case out.foldErr != nil:
		rep.fail("%s banded fold: %v", c.topology, out.foldErr)
		return
	case out.banded != out.cert.Social:
		rep.fail("%s: banded social cost %+v != closed form %+v", c.topology, out.banded, out.cert.Social)
		return
	}
	closed := core.StarPeerEval
	if c.topology == "chain" {
		closed = core.ChainPeerEval
	}
	for k, i := range c.peers {
		if want := closed(c.n, c.alpha, i); out.peers[k] != want {
			rep.fail("%s peer %d: streamed %+v != closed form %+v", c.topology, i, out.peers[k], want)
			return
		}
	}
	if !out.cert.Stable && out.witness != out.cert.WitnessEval {
		rep.fail("%s witness: streamed %+v != closed form %+v", c.topology, out.witness, out.cert.WitnessEval)
	}
}

// runCertifyLarge times the certify path on the star at n=16384 and
// the chain at n=8192; a round certifies both.
func runCertifyLarge(e *runEnv) error {
	rep := &e.rep
	rep.workUnit = "pairs"
	inputs := certifyInputs(e.opts.seed)
	setup := func() ([]certifyCase, error) { return buildCertify(inputs) }
	cases, err := timeSetups(rep, 7, 5, nil, setup, func([]certifyCase) {})
	if err != nil {
		return err
	}
	pairs := 0.0
	bands := 0
	maxN := 0
	for _, c := range cases {
		pairs += float64(c.n) * float64(c.n)
		bands += (c.n + certifyBand - 1) / certifyBand
		maxN = max(maxN, c.n)
	}
	stable := map[string]bool{}
	err = e.rounds(func(tr *tracer) (time.Duration, error) {
		mark, lo := tr.mark(), tr.now()
		t0 := time.Now()
		outs := make([]certifyOutput, len(cases))
		for i, c := range cases {
			outs[i] = certifyOnce(tr, c)
		}
		d := time.Since(t0)
		hi := tr.now()
		for i, c := range cases {
			rep.attempted++
			checkCertify(rep, c, outs[i])
			stable[c.topology] = outs[i].cert.Stable
		}
		e.recordRound(tr, pairs, d)
		// Further set-up batches between rounds spread the samples over
		// the run.
		if _, err := timeSetups(rep, 2, 5, nil, setup, func([]certifyCase) {}); err != nil {
			return 0, err
		}
		if tr != nil {
			q := tr.since(mark).within(lo, hi)
			rep.addRound(map[string]float64{
				"core.certify_us":        q.named("core.certify").total() * 1e6,
				"core.fold_s.star":       q.named("core.fold").attr("star").total(),
				"core.fold_s.chain":      q.named("core.fold").attr("chain").total(),
				"core.fold_pairs":        pairs,
				"core.fold_bands":        float64(bands),
				"core.fold_resident_mib": float64(certifyBand*maxN*8) / (1 << 20),
				"core.streamed_ms":       q.named("core.streamed").total() * 1e3,
			})
			rep.uncovered = append(rep.uncovered, 1-coverage(q, lo, hi))
		}
		return d, nil
	})
	if err != nil {
		return err
	}
	rep.addExtra("pairs_per_s", "1/s", median(rep.work), len(rep.work))
	if e.opts.trace {
		rep.finishLayers()
	}
	for _, c := range cases {
		fmt.Fprintf(e.out, "certify: %s n=%d α=%.4f nash=%v, %d spot-checked peers, band %d\n",
			c.topology, c.n, c.alpha, stable[c.topology], len(c.peers), certifyBand)
	}
	return nil
}
