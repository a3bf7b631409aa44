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
	"crypto/sha256"
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
					Options:     engine.Options{N: datapathN, Seed: datapathSeed, Workers: shards, Sampling: sampling},
					TrackValues: fixtureValueCap,
					TrackSpread: true,
				}
			}
			return fixtureRunner{
				run: func(sampling engine.SamplingMode, shards int) any {
					return c.Run(opt(sampling, shards))
				},
				merged: func(sampling engine.SamplingMode, shards int) any {
					return engine.MergeAll(engine.ShardReports(c.Surface(opt(sampling, shards))))
				},
			}
		},
	},
	{
		prefix: "buffer_global",
		make: func(dt numeric.Type) fixtureRunner {
			c := &eyeriss.Campaign{
				Campaign: engine.Campaign{Net: models.Build(fixtureNet), DType: dt, Inputs: fixtureInputsFor(fixtureNet)},
			}
			opt := func(sampling engine.SamplingMode, shards int) eyeriss.Options {
				return eyeriss.Options{N: bufferN, Seed: bufferSeed, Workers: shards, Sampling: sampling}
			}
			return fixtureRunner{
				run: func(sampling engine.SamplingMode, shards int) any {
					return c.Run(eyeriss.GlobalBuffer, opt(sampling, shards))
				},
				merged: func(sampling engine.SamplingMode, shards int) any {
					return engine.MergeAll(engine.ShardReports(c.Surface(eyeriss.GlobalBuffer, opt(sampling, shards))))
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
		Campaign: engine.Campaign{Net: models.Build(fixtureNet), DType: dt, Inputs: fixtureInputsFor(fixtureNet)},
		Flow:     flow,
	}
	opt := func(sampling engine.SamplingMode, shards int) systolic.Options {
		return systolic.Options{N: systolicN, Seed: systolicSeed, Workers: shards, Sampling: sampling}
	}
	return fixtureRunner{
		run: func(sampling engine.SamplingMode, shards int) any {
			return c.Run(opt(sampling, shards))
		},
		merged: func(sampling engine.SamplingMode, shards int) any {
			return engine.MergeAll(engine.ShardReports(c.Surface(opt(sampling, shards))))
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
// (checkSurface) against every surface adapter — each dataflow of
// the systolic surface, and each surface's multi-bit-upset variant —
// under both sampling designs: zero-report identity, merge
// associativity and commutativity over shard order, the strata JSON
// round-trip, and the Workers: 0 report byte-equal to the Workers:
// DefaultShards one. The datapath adapter runs without value tracking — capped
// value sampling is deliberately shard-order-sensitive and outside the
// monoid contract. Every adapter must also refuse the same malformed
// options, which the engine validates once for all of them, and reproduce
// its site-scalar report in site-bitplane mode on every format
// (testSiteModes).
func TestSurfaceConformance(t *testing.T) {
	dt := numeric.Fx16RB10
	ins := fixtureInputsFor(fixtureNet)
	build := func() *network.Network { return models.Build(fixtureNet) }
	// Each adapter binds its surface under o's sampling, MBU and eval
	// design (the budget and seed are the surface's fixture constants) and
	// runs the conformance check.
	type adapter func(t *testing.T, o engine.Options)
	datapath := func(t *testing.T, o engine.Options) {
		c := faultinj.New(models.Build(fixtureNet), dt, ins)
		s, eopt := c.Surface(faultinj.Options{Options: engine.Options{N: datapathN, Seed: datapathSeed, Workers: 3, Sampling: o.Sampling, MBU: o.MBU, Eval: o.Eval}})
		checkSurface(t, s, eopt)
	}
	buffer := func(t *testing.T, o engine.Options) {
		c := &eyeriss.Campaign{Campaign: engine.Campaign{Net: build(), DType: dt, Inputs: ins}}
		o.N, o.Seed, o.Workers = bufferN, bufferSeed, 3
		s, eopt := c.Surface(eyeriss.GlobalBuffer, o)
		checkSurface(t, s, eopt)
	}
	systolicFlow := func(flow systolic.Dataflow) adapter {
		return func(t *testing.T, o engine.Options) {
			c := &systolic.Campaign{Campaign: engine.Campaign{Net: build(), DType: dt, Inputs: ins}, Flow: flow}
			o.N, o.Seed, o.Workers = systolicN, systolicSeed, 3
			s, eopt := c.Surface(o)
			checkSurface(t, s, eopt)
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
	t.Run("site_bitplane_matches_site_scalar", testSiteModes)
}

// siteModeN is the budget of every site-mode campaign: 10 to 40 site draws
// per format.
const siteModeN = 640

// siteBitPlaneSHA256 pins each adapter's site-bitplane report per format:
// the SHA-256 of its JSON. The datapath and buffer rows predate the one
// bit-plane evaluator every single-MAC surface now shares — they prove the
// unification changed nothing. The fixed-point systolic rows date from it:
// the act and weight registers gained the ReLU sign-domain kill, so their
// PreMasked rose while every other byte stayed put.
var siteBitPlaneSHA256 = map[string]string{
	"datapath/DOUBLE":          "e2957ec0a915252fd307a55db16d48ce2a451510e1a96fcfa988c0fc0f2e176d",
	"datapath/FLOAT":           "d719e55afef23d3495c64eab55bfe4e0048fc40120d42867dff1c1e59c198e6a",
	"datapath/FLOAT16":         "88c1c8124b75024bbab2ad3282463941d99bc18b36df535e1482972ea55f6108",
	"datapath/32b_rb26":        "d330d9b759bd19d7a0e2ce17cbb36b1431c57fcb481223d436ec1f757b8a1223",
	"datapath/32b_rb10":        "b9efdc09f044a3092ef9f4aa359de7a19510509fbb883fc01391ec82eaaf301e",
	"datapath/16b_rb10":        "232b66ac46bdf6ef7a147faa95e211d7bd68def6442e40ba70ab24f0f9671105",
	"buffer_global/DOUBLE":     "98ebbddbe152eb045fecf3f1789466472a96b4f95a867aa91af9a3d60cea757d",
	"buffer_global/FLOAT":      "af23d85fc2e72646ff3c68c37dc23c329b262648039d62f82a185622ecb19502",
	"buffer_global/FLOAT16":    "8a6d59c287872c1efb4226c19f54e3a1e92ece75e09083516bcb7f3892b98916",
	"buffer_global/32b_rb26":   "0481354c393408c11bcb1a47b7c995c0b755a3b56713c19a1e44defcc05736a7",
	"buffer_global/32b_rb10":   "55bd9551b258f3fa9592d503e07098e2f0276c764ea6c7e5a59991f410ef5374",
	"buffer_global/16b_rb10":   "7c9035f13bbc67aff3507a415cbab3575d189fc912945b0c464c2127da5be186",
	"buffer_psum/DOUBLE":       "55c08fa558e58e125fd568e92c55a1f54d5aa64bbd6c11da71cd9152b419a212",
	"buffer_psum/FLOAT":        "ac1025a09eedce27dcbed0cd1f988e7d259413c3c24e42f56e598e08901772a8",
	"buffer_psum/FLOAT16":      "33ed9b2f053f0b89a83fee775bdfa365c6270984143b1567fc5fec5665a5214d",
	"buffer_psum/32b_rb26":     "7b15504fcdc9af51f0029720b0dbb3838ceea40c4b5403c46105e898e0c4822f",
	"buffer_psum/32b_rb10":     "a74c16479a9220d6745a34cd0ae359131eeb4786d3851e74116f25dfa909b20b",
	"buffer_psum/16b_rb10":     "6df31c085fe5e1059270f0a028b4fb2d1f9b391d966a20725287364a30f40915",
	"systolic/DOUBLE":          "727b2bb6746b6508da12fc4c7bd3ca8da47bd665bc595df96c5a503946992943",
	"systolic/FLOAT":           "4f63e2d9d1884137dc08a4035133e5de52d581dc79272ab57fb2d634668e0c73",
	"systolic/FLOAT16":         "4d02b833a5fc49cc562e8351e26127486ce83527a102f0f6df2b5352b0aac692",
	"systolic/32b_rb26":        "edfbc82efcaec2b1df8b6e4eb50a22a69a7cf2c21dde1888eac83900583b0002",
	"systolic/32b_rb10":        "c99498dd4e4d77b215ef331d5410024e5dd14dce10e5012962a66ec5096ec261",
	"systolic/16b_rb10":        "766a808ff389d7e8265330565946a9d63c1a731cea0bcb9a2b457a6a0c79dd77",
	"systolic_output/DOUBLE":   "7e367be3434946abc54afbf6ba292f69e873d471d0633b3d44a51d7baac08c05",
	"systolic_output/FLOAT":    "52b1a942ec7c034c5c5e6a4b5c175db228d55343c52ed808252f9aad8ce62d8f",
	"systolic_output/FLOAT16":  "9884037f4c4058252cc1bf423d3b7336a7726e0f7ea42ebd322aa164c00c647d",
	"systolic_output/32b_rb26": "f4833296d4f97b6cc5fbc28fba3b44338285fe1d0ca43a168009e6fb94ec3e6c",
	"systolic_output/32b_rb10": "45aa51f24e5297f874096387a3c7970f7c935bbcda8d41501ac92759e789dd82",
	"systolic_output/16b_rb10": "6959629b9fcc0b1213775c135d88fcb022ffb6273be21780a10f9b274837bf5c",
	"systolic_input/DOUBLE":    "a88f49f83e9c6f7ec84e6319e15794e8da08a7382831f26beb12efd8b17a2c41",
	"systolic_input/FLOAT":     "e28245708543c73871584d11f5208994ca6cf299b13448eb9df48306a27f1d37",
	"systolic_input/FLOAT16":   "cb56df58c7cc82ead44dca5e8dafc7fef51d057beda7b0ab19055787654261a7",
	"systolic_input/32b_rb26":  "b8e4de8895b6c86086290f6a2c5f248f5e4159eccc177e42b00cde23b2a7ab7c",
	"systolic_input/32b_rb10":  "f41c1995bed4eb0ba2d09b432da0b772bc4fd1778240a967e47e7e02bd08a832",
	"systolic_input/16b_rb10":  "c1f852b0df887ce8a7170526d3ac8f3098f0adc5c2c56dac64b70ff5e69bbedc",
}

// testSiteModes runs every adapter — the datapath with value and spread
// tracking, the Global Buffer and PSum REG classes, the three dataflows —
// under both site modes on all six formats: the site-bitplane report must
// equal the site-scalar one byte for byte once the bit-plane diagnostics
// are dropped, and must hash to its pin.
func testSiteModes(t *testing.T) {
	ins := fixtureInputsFor(fixtureNet)
	systolicFlow := func(flow systolic.Dataflow) func(numeric.Type, engine.EvalMode) any {
		return func(dt numeric.Type, eval engine.EvalMode) any {
			c := &systolic.Campaign{Campaign: engine.Campaign{Net: models.Build(fixtureNet), DType: dt, Inputs: ins}, Flow: flow}
			return c.Run(systolic.Options{N: siteModeN, Seed: systolicSeed, Workers: 3, Eval: eval})
		}
	}
	buffer := func(b eyeriss.Buffer) func(numeric.Type, engine.EvalMode) any {
		return func(dt numeric.Type, eval engine.EvalMode) any {
			c := &eyeriss.Campaign{Campaign: engine.Campaign{Net: models.Build(fixtureNet), DType: dt, Inputs: ins}}
			return c.Run(b, eyeriss.Options{N: siteModeN, Seed: bufferSeed, Workers: 3, Eval: eval})
		}
	}
	for _, a := range []struct {
		name string
		run  func(numeric.Type, engine.EvalMode) any
	}{
		{"datapath", func(dt numeric.Type, eval engine.EvalMode) any {
			c := faultinj.New(models.Build(fixtureNet), dt, ins)
			return c.Run(faultinj.Options{Options: engine.Options{N: siteModeN, Seed: datapathSeed, Workers: 3, Eval: eval}, TrackValues: 24, TrackSpread: true})
		}},
		{"buffer_global", buffer(eyeriss.GlobalBuffer)},
		{"buffer_psum", buffer(eyeriss.PSumReg)},
		{"systolic", systolicFlow(systolic.WeightStationary)},
		{"systolic_output", systolicFlow(systolic.OutputStationary)},
		{"systolic_input", systolicFlow(systolic.InputStationary)},
	} {
		for _, dt := range numeric.Types {
			cell := a.name + "/" + dt.String()
			plane := a.run(dt, engine.EvalSiteBitPlane)
			if got, want := withoutPreMasked(t, plane), withoutPreMasked(t, a.run(dt, engine.EvalSiteScalar)); !bytes.Equal(got, want) {
				t.Errorf("%s: site-bitplane report differs from site-scalar\nplane:  %s\nscalar: %s", cell, got, want)
			}
			b, err := json.Marshal(plane)
			if err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%x", sha256.Sum256(b)); got != siteBitPlaneSHA256[cell] {
				t.Errorf("%s: site-bitplane report hashes to %s, pinned %s", cell, got, siteBitPlaneSHA256[cell])
			}
		}
	}
}

// withoutPreMasked is report's JSON without the PreMasked and
// PreMaskedPerBit diagnostics: how the bit-plane mode proved an injection
// masked, which the scalar oracle, proving nothing analytically, does not
// report.
func withoutPreMasked(t *testing.T, report any) []byte {
	b, err := json.Marshal(report)
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(b, &fields); err != nil {
		t.Fatal(err)
	}
	delete(fields, "PreMasked")
	delete(fields, "PreMaskedPerBit")
	out, err := json.Marshal(fields)
	if err != nil {
		t.Fatal(err)
	}
	return out
}
