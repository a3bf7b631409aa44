package engine_test

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/engine"
	"repro/internal/models"
	"repro/internal/network"
	"repro/internal/numeric"
	"repro/internal/tensor"
)

// TestCampaignGoldenComputesOncePerInput: concurrent requests resolve each
// input once — through the hook when there is one, which the campaign's memo
// sits in front of — and every request for an input reads that one
// execution, bit for bit the serial forward pass.
func TestCampaignGoldenComputesOncePerInput(t *testing.T) {
	const dt = numeric.Fx16RB10
	net := models.Build("ConvNet")
	inputs := make([]*tensor.Tensor, 4)
	for i := range inputs {
		inputs[i] = models.InputFor("ConvNet", i)
	}
	for _, hooked := range []bool{false, true} {
		c := &engine.Campaign{Net: net, DType: dt, Inputs: inputs}
		var resolves atomic.Int32
		if hooked {
			c.GoldenFn = func(i int, compute func() *network.Execution) *network.Execution {
				resolves.Add(1)
				return compute()
			}
		}
		var wg sync.WaitGroup
		execs := make([]*network.Execution, 16)
		for i := range execs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				execs[i] = c.Golden(i % 4)
			}()
		}
		wg.Wait()
		if hooked && resolves.Load() != 4 {
			t.Fatalf("hook consulted %d times for 4 inputs", resolves.Load())
		}
		for i, e := range execs {
			if e != execs[i%4] {
				t.Fatalf("request %d got a different execution than request %d for the same input", i, i%4)
			}
		}
		for i, in := range inputs {
			want := net.Forward(dt, in)
			for l := range want.Acts {
				if !tensor.BitIdentical(want.Acts[l], execs[i].Acts[l]) {
					t.Fatalf("input %d: memoized golden differs from Forward at layer %d", i, l)
				}
			}
		}
	}
}

// TestCampaignPrepare: a campaign without inputs is refused before its
// derivation runs, and a derivation that panicked panics again with the same
// value without running twice.
func TestCampaignPrepare(t *testing.T) {
	derivePanics := func(c *engine.Campaign, derive func()) (v any) {
		defer func() { v = recover() }()
		c.Prepare(derive)
		return nil
	}
	ran := 0
	empty := &engine.Campaign{Net: models.Build("ConvNet"), DType: numeric.Float16}
	if v := derivePanics(empty, func() { ran++ }); v == nil || ran != 0 {
		t.Fatalf("inputless campaign: panic %v after %d derivations, want a refusal before any", v, ran)
	}
	c := &engine.Campaign{Net: empty.Net, DType: numeric.Float16, Inputs: []*tensor.Tensor{models.InputFor("ConvNet", 0)}}
	for i := 0; i < 3; i++ {
		if v := derivePanics(c, func() { ran++; panic("bad geometry") }); v != "bad geometry" {
			t.Fatalf("call %d: panic %v, want the derivation's", i, v)
		}
	}
	if ran != 1 {
		t.Fatalf("derivation ran %d times, want once", ran)
	}
}
