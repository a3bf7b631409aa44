// Cross-engine determinism fixtures: the reports of every campaign
// surface, checked in as JSON under testdata/ and regenerated only with
// -update. The faultinj and eyeriss fixtures predate the shared-engine
// refactor — they prove the delegation introduced no behavioral drift —
// and the systolic fixtures pin each dataflow's surface from its birth:
// the weight-stationary pins predate the dataflow parameterization (they
// prove the refactor changed nothing), and the output-/input-stationary
// pins date from those dataflows' introduction. Every report stays
// bit-for-bit identical across all six numeric formats, both sampling
// designs and S ∈ {1, 2, 7} shards, whether produced by Run or by the
// shard-order merge of the per-shard partials of a serial pass over the
// plan's slots (engine.ShardReports); adding a surface is one
// surfaceFixtures table entry.
package engine_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/engine"
	"repro/internal/eyeriss"
	"repro/internal/faultinj"
	"repro/internal/models"
	"repro/internal/network"
	"repro/internal/numeric"
	"repro/internal/systolic"
	"repro/internal/tensor"
)

var update = flag.Bool("update", false, "rewrite testdata fixtures from the current engines")

// shardCounts is the S sweep every fixture covers.
var shardCounts = []int{1, 2, 7}

const (
	fixtureNet      = "ConvNet"
	datapathN       = 36
	datapathSeed    = 3
	bufferN         = 24
	bufferSeed      = 5
	systolicN       = 24
	systolicSeed    = 7
	fixtureInputs   = 2
	fixtureValueCap = 6
)

func fixtureInputsFor(name string) []*tensor.Tensor {
	ins := make([]*tensor.Tensor, fixtureInputs)
	for i := range ins {
		ins[i] = models.InputFor(name, i)
	}
	return ins
}

// fixtureRunner produces one surface's full-campaign report and its
// shard-order merge of serially-run shard partials, both of which must
// reproduce the checked-in fixture.
type fixtureRunner struct {
	run    func(sampling engine.SamplingMode, shards int) any
	merged func(sampling engine.SamplingMode, shards int) any
}

// surfaceFixtures is the per-surface fixture table: a name prefix (the
// fixture filename is <prefix>_<dtype>_<sampling>_s<shards>.json) and a
// per-format runner constructor. Adding a fault surface to the fixture
// sweep is one entry here.
var surfaceFixtures = []struct {
	prefix string
	make   func(dt numeric.Type) fixtureRunner
}{
	{
		prefix: "datapath",
		make: func(dt numeric.Type) fixtureRunner {
			c := faultinj.New(models.Build(fixtureNet), dt, fixtureInputsFor(fixtureNet))
			opt := func(sampling engine.SamplingMode, shards int) faultinj.Options {
				return faultinj.Options{
					N: datapathN, Seed: datapathSeed, Workers: shards,
					TrackValues: fixtureValueCap, TrackSpread: true,
					Sampling: sampling,
				}
			}
			return fixtureRunner{
				run: func(sampling engine.SamplingMode, shards int) any {
					return c.Run(opt(sampling, shards))
				},
				merged: func(sampling engine.SamplingMode, shards int) any {
					return faultinj.MergeReports(engine.ShardReports(c.Surface(opt(sampling, shards))))
				},
			}
		},
	},
	{
		prefix: "buffer_global",
		make: func(dt numeric.Type) fixtureRunner {
			c := &eyeriss.Campaign{
				Net:    models.Build(fixtureNet),
				DType:  dt,
				Inputs: fixtureInputsFor(fixtureNet),
			}
			opt := func(sampling engine.SamplingMode, shards int) eyeriss.Options {
				return eyeriss.Options{N: bufferN, Seed: bufferSeed, Workers: shards, Sampling: sampling}
			}
			return fixtureRunner{
				run: func(sampling engine.SamplingMode, shards int) any {
					return c.Run(eyeriss.GlobalBuffer, opt(sampling, shards))
				},
				merged: func(sampling engine.SamplingMode, shards int) any {
					return eyeriss.MergeReports(engine.ShardReports(c.Surface(eyeriss.GlobalBuffer, opt(sampling, shards))))
				},
			}
		},
	},
	{
		prefix: "systolic",
		make:   func(dt numeric.Type) fixtureRunner { return systolicFixture(dt, systolic.WeightStationary) },
	},
	{
		prefix: "systolic_output",
		make:   func(dt numeric.Type) fixtureRunner { return systolicFixture(dt, systolic.OutputStationary) },
	},
	{
		prefix: "systolic_input",
		make:   func(dt numeric.Type) fixtureRunner { return systolicFixture(dt, systolic.InputStationary) },
	},
}

// systolicFixture builds the systolic surface's fixture runner for one
// dataflow; the weight-stationary prefix stays the bare "systolic" so the
// pre-parameterization pins keep their filenames (and stay byte-frozen).
func systolicFixture(dt numeric.Type, flow systolic.Dataflow) fixtureRunner {
	c := &systolic.Campaign{
		Net:    models.Build(fixtureNet),
		DType:  dt,
		Inputs: fixtureInputsFor(fixtureNet),
		Flow:   flow,
	}
	opt := func(sampling engine.SamplingMode, shards int) systolic.Options {
		return systolic.Options{N: systolicN, Seed: systolicSeed, Workers: shards, Sampling: sampling}
	}
	return fixtureRunner{
		run: func(sampling engine.SamplingMode, shards int) any {
			return c.Run(opt(sampling, shards))
		},
		merged: func(sampling engine.SamplingMode, shards int) any {
			return systolic.MergeReports(engine.ShardReports(c.Surface(opt(sampling, shards))))
		},
	}
}

// checkFixture compares the marshaled report against testdata/<name>, or
// rewrites the fixture under -update.
func checkFixture(t *testing.T, name string, report any) {
	t.Helper()
	got, err := json.MarshalIndent(report, "", " ")
	if err != nil {
		t.Fatalf("marshaling report: %v", err)
	}
	got = append(got, '\n')
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading fixture (regenerate with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("report drifted from pinned fixture %s (%d vs %d bytes)", name, len(got), len(want))
	}
}

// TestCrossEngineFixtures pins every surface's campaign reports:
// Campaign.Run at Workers=S, and the shard-order merge of
// engine.ShardReports at Workers=S, must both reproduce the checked-in fixture for every format × sampling
// × shard-count cell.
func TestCrossEngineFixtures(t *testing.T) {
	for _, sf := range surfaceFixtures {
		for _, dt := range numeric.Types {
			r := sf.make(dt)
			for _, sampling := range []engine.SamplingMode{engine.SamplingUniform, engine.SamplingStratified} {
				for _, shards := range shardCounts {
					name := fmt.Sprintf("%s_%s_%s_s%d.json", sf.prefix, dt, sampling, shards)
					t.Run(name, func(t *testing.T) {
						checkFixture(t, name, r.run(sampling, shards))
						checkFixture(t, name, r.merged(sampling, shards))
					})
				}
			}
		}
	}
}

// TestSurfaceConformance runs the generic Surface contract checker
// (engine.CheckSurface) against every surface adapter — each dataflow of
// the systolic surface, and each surface's multi-bit-upset variant —
// under both sampling designs: NewReport zero identity, merge
// associativity and commutativity over shard order, the strata JSON
// round-trip, and the Workers: 0 report byte-equal to the Workers:
// DefaultShards one. The datapath adapter runs without value tracking — capped
// value sampling is deliberately shard-order-sensitive and outside the
// monoid contract. Every adapter must also refuse the same malformed
// options, which the engine validates once for all of them.
func TestSurfaceConformance(t *testing.T) {
	dt := numeric.Fx16RB10
	ins := fixtureInputsFor(fixtureNet)
	build := func() *network.Network { return models.Build(fixtureNet) }
	// Each adapter binds its surface under o's sampling, MBU and eval
	// design (the budget and seed are the surface's fixture constants) and
	// runs the conformance check.
	type adapter func(t engine.TestingT, o engine.Options)
	datapath := func(t engine.TestingT, o engine.Options) {
		c := faultinj.New(models.Build(fixtureNet), dt, ins)
		s, eopt := c.Surface(faultinj.Options{N: datapathN, Seed: datapathSeed, Workers: 3, Sampling: o.Sampling, MBU: o.MBU, Eval: o.Eval})
		engine.CheckSurface(t, s, eopt)
	}
	buffer := func(t engine.TestingT, o engine.Options) {
		c := &eyeriss.Campaign{Net: build(), DType: dt, Inputs: ins}
		o.N, o.Seed, o.Workers = bufferN, bufferSeed, 3
		s, eopt := c.Surface(eyeriss.GlobalBuffer, o)
		engine.CheckSurface(t, s, eopt)
	}
	systolicFlow := func(flow systolic.Dataflow) adapter {
		return func(t engine.TestingT, o engine.Options) {
			c := &systolic.Campaign{Net: build(), DType: dt, Inputs: ins, Flow: flow}
			o.N, o.Seed, o.Workers = systolicN, systolicSeed, 3
			s, eopt := c.Surface(o)
			engine.CheckSurface(t, s, eopt)
		}
	}
	surfaces := []struct {
		name  string
		check adapter
	}{
		{"datapath", datapath},
		{"buffer", buffer},
		{"systolic", systolicFlow(systolic.WeightStationary)},
		{"systolic_output", systolicFlow(systolic.OutputStationary)},
		{"systolic_input", systolicFlow(systolic.InputStationary)},
	}
	for _, sf := range surfaces {
		for _, mbu := range []int{0, 3} {
			for _, sampling := range []engine.SamplingMode{engine.SamplingUniform, engine.SamplingStratified} {
				name := fmt.Sprintf("%s_%s", sf.name, sampling)
				if mbu > 0 {
					name = fmt.Sprintf("%s_mbu%d_%s", sf.name, mbu, sampling)
				}
				t.Run(name, func(t *testing.T) {
					sf.check(t, engine.Options{Sampling: sampling, MBU: mbu})
				})
			}
		}
		// The shared options are validated once, in the engine, so every
		// surface refuses the same malformed designs.
		for name, o := range map[string]engine.Options{
			"mbu_wider_than_word": {MBU: dt.Width() + 1},
			"mbu_with_site_eval":  {MBU: 2, Eval: engine.EvalSiteScalar},
			"mbu_with_bitplane":   {MBU: 2, Eval: engine.EvalSiteBitPlane},
			"unknown_eval":        {Eval: "bit-serial"},
		} {
			t.Run(sf.name+"_refuses_"+name, func(t *testing.T) {
				defer func() {
					if recover() == nil {
						t.Fatalf("options %+v ran", o)
					}
				}()
				sf.check(t, o)
			})
		}
	}
}
