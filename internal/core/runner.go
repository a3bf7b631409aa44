package core

import (
	"fmt"
	"sync"

	"repro/internal/campaign"
	"repro/internal/numeric"
)

// suite runs the experiments a campaign.Spec can describe: the SoloReport
// path cmd/faultserve runs, behind a process-wide memo keyed by the
// normalized spec — experiments reading one campaign share its one
// execution — and one golden cache, so the suite pays one forward pass per
// (network, weights, format, input) however many specs and surfaces read it.
var suite = struct {
	sync.Mutex
	goldens          *campaign.GoldenCache
	memo             map[campaign.Spec]*campaign.Report
	executed, reused int
}{goldens: campaign.NewGoldenCache(), memo: make(map[campaign.Spec]*campaign.Report)}

// run returns the merged report of spec's campaign, executing it on first
// use. Campaigns parallelize internally, so concurrent callers take turns.
func run(spec campaign.Spec) (*campaign.Report, error) {
	if err := spec.Normalize(); err != nil {
		return nil, err
	}
	suite.Lock()
	defer suite.Unlock()
	if r, ok := suite.memo[spec]; ok {
		suite.reused++
		return r, nil
	}
	r, _, err := campaign.SoloReport(spec, suite.goldens)
	if err != nil {
		return nil, err
	}
	suite.executed++
	suite.memo[spec] = r
	return r, nil
}

// RunnerStats renders what the runner did so far in this process.
func RunnerStats() string {
	suite.Lock()
	defer suite.Unlock()
	hits, misses := suite.goldens.Stats()
	return fmt.Sprintf("%d campaigns executed, %d reused; golden cache %d hits, %d misses",
		suite.executed, suite.reused, hits, misses)
}

// uniformSpec is the paper's i.i.d. datapath campaign for one network and
// format, which Fig. 5 and the latch breakdown — readers of raw
// per-injection data — and the two comparisons run as is, and the base of
// every other spec. Shards stays zero: engine.DefaultShards, as in the
// hand-built campaigns, so no table depends on the host's core count.
func uniformSpec(cfg Config, net string, dt numeric.Type) campaign.Spec {
	return campaign.Spec{
		Net: net, DType: dt.String(),
		N: cfg.Injections, Inputs: cfg.Inputs, Seed: cfg.Seed,
		WeightsDir: cfg.WeightsDir,
	}
}

// stratifiedSpec is the one stratified datapath campaign of a (network,
// format): Fig. 3's row, Fig. 4's per-bit and Fig. 6's per-layer series and
// Table 6's cell are all marginals of its block × bit strata. Table 8 moves
// it onto the buffer surface.
func stratifiedSpec(cfg Config, net string, dt numeric.Type) campaign.Spec {
	s := uniformSpec(cfg, net, dt)
	s.Sampling = "stratified"
	return s
}
