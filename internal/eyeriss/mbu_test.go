package eyeriss

import (
	"fmt"
	"testing"

	"repro/internal/engine"
	"repro/internal/numeric"
)

// TestBufferMBUCampaign runs a multi-bit-upset campaign over every buffer
// class: base bits whose span would cross the word end are never drawn,
// the distributed shard-order merge stays bit-identical to the solo run,
// and stratified runs leave the crossing strata empty.
func TestBufferMBUCampaign(t *testing.T) {
	c := &Campaign{Campaign: engine.Campaign{Net: buildSmall(), DType: numeric.Fx16RB10, Inputs: smallInputs(2)}}
	opt := Options{N: 60, Seed: 7, Workers: 2, MBU: 3}
	differs := false
	for _, b := range Buffers {
		r := c.Run(b, opt)
		if r.Counts.Trials != 60 {
			t.Errorf("%s: trials = %d, want 60", b, r.Counts.Trials)
		}
		single := opt
		single.MBU = 1
		if c.Run(b, single).Counts != r.Counts {
			differs = true
		}
		parts := engine.ShardReports(c.Surface(b, opt))
		assertBufferReportsBitIdentical(t, fmt.Sprintf("%s mbu distributed", b), engine.MergeAll(parts), r)
	}
	if !differs {
		t.Error("MBU=3 tallied identically to MBU=1 on every buffer class")
	}

	// Stratified MBU campaigns must leave the top MBU-1 base-bit strata
	// empty: their population weight is zero.
	width := numeric.Fx16RB10.Width()
	for _, b := range []Buffer{GlobalBuffer, ImgReg} {
		sopt := opt
		sopt.Sampling = engine.SamplingStratified
		sopt.PilotN = 24
		sr := c.Run(b, sopt)
		if sr.Strata == nil {
			t.Fatalf("%s: no strata", b)
		}
		blocks := len(sr.Strata.Counts) / width
		for blk := 0; blk < blocks; blk++ {
			for bit := width - opt.MBU + 1; bit < width; bit++ {
				if n := sr.Strata.Counts[blk*width+bit].Trials; n != 0 {
					t.Errorf("%s: stratum (%d,%d) got %d trials; MBU span would cross the word end", b, blk, bit, n)
				}
			}
		}
		parts := engine.ShardReports(c.Surface(b, sopt))
		assertBufferReportsBitIdentical(t, fmt.Sprintf("%s mbu stratified", b), engine.MergeAll(parts), sr)
	}
}

func TestBufferMBURejectsSiteModes(t *testing.T) {
	c := &Campaign{Campaign: engine.Campaign{Net: buildSmall(), DType: numeric.Fx16RB10, Inputs: smallInputs(1)}}
	defer func() {
		if recover() == nil {
			t.Error("MBU + site mode did not panic")
		}
	}()
	c.Run(PSumReg, Options{N: 8, Seed: 1, MBU: 2, Eval: engine.EvalSiteScalar})
}

func TestBufferMBUWiderThanWordRejected(t *testing.T) {
	c := &Campaign{Campaign: engine.Campaign{Net: buildSmall(), DType: numeric.Fx16RB10, Inputs: smallInputs(1)}}
	defer func() {
		if recover() == nil {
			t.Error("MBU wider than the word did not panic")
		}
	}()
	c.Run(GlobalBuffer, Options{N: 8, Seed: 1, MBU: 17})
}
