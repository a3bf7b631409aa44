package campaign

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/accel"
	"repro/internal/engine"
	"repro/internal/eyeriss"
	"repro/internal/faultinj"
	"repro/internal/models"
	"repro/internal/sdc"
	"repro/internal/systolic"
)

// Report is the surface-tagged wire report of one ledger slot (and of the
// merged campaign): exactly one field is set, the one of Spec.Surface's
// row in the surface table. It exists so one ledger, journal format and
// worker protocol carry every fault surface; the inner reports keep their
// own JSON shapes, so a distributed campaign's final report still
// byte-compares against the solo run of the surface's own package.
type Report struct {
	Datapath *faultinj.Report `json:"datapath,omitempty"`
	Buffer   *eyeriss.Report  `json:"buffer,omitempty"`
	Systolic *systolic.Report `json:"systolic,omitempty"`

	// wire is set on a report the codec's parser decoded (DecodeReportBatch):
	// its own bytes, a subslice of the request body, which are exactly
	// AppendJSON's bytes of the decoded value, so AppendJSON copies them
	// instead of encoding. They stay that only because nothing mutates a
	// decoded report — not the plane, the ledger, a merge or the journal —
	// nor the body under it; code that would must clear wire first. Reports
	// encoding/json decoded, and those built in process, carry none.
	// Machine.Retire drops them once the campaign is over.
	wire []byte
}

// surface is one row of the surface table: everything this package knows
// about a fault surface. Spec validation, lease execution, the solo runner
// and the wire report all go through the row named by Spec.Surface; no
// other code in the package tells the surfaces apart.
type surface struct {
	name string
	// normalize is the surface's block of Spec.Normalize: defaults and
	// refusals for the spec fields only this surface reads.
	normalize func(s *Spec) error
	// execute fetches the spec's prepared campaign from cs, binds it to the
	// engine and runs the lease's slot, or the whole campaign, on it (see run).
	execute func(cs *campaignSet, campaignID string, spec Spec, l *Lease, solo soloHooks) (*Report, error)
	// view reads the surface's report out of a wire report; ok is false when
	// r does not carry this surface.
	view func(r *Report) (v view, ok bool)
	// merge folds the surface's reports of rs in order, nil entries skipped
	// — the engine's one association (engine.MergeAll).
	merge func(rs []*Report) *Report
	// check verifies that the surface's report in r has the dimensions d
	// and that its breakdown tallies (sdc.Counts besides the overall one and
	// the strata) and spread accumulators are ones injections could have
	// produced; nil when the report has neither.
	check func(r *Report, d dims) error
	// weights is the surface package's stratum weights of the campaign of s,
	// whose MBU is its upset width, on its topology (Spec.dims).
	weights func(s Spec) engine.HexFloats
	// decode reads the surface's report in its canonical JSON into r, and
	// encode appends json.Marshal's bytes of it (codec.go).
	decode func(p *parser, r *Report)
	encode func(b []byte, r *Report) ([]byte, error)
}

// view is what this package reads of a surface's report.
type view struct {
	// inner is the surface report itself. Its JSON is exactly what a solo
	// run of the surface's own package serializes to.
	inner  any
	counts sdc.Counts
	strata *engine.StrataSummary
	// masked and perBlock are datapath-only: the injections the incremental
	// engine proved bit-clean, and the per-block tallies (the other surfaces
	// always classify the full output; their per-layer view is Strata).
	masked   int
	perBlock []sdc.Counts
}

// dims are the report dimensions a spec implies: the word width, the
// MAC-layer count that is the block axis of every surface's stratum grid
// and the datapath's per-block tallies, whether the spread accumulators
// count injections (Spec.TrackSpread), and the grid's stratum weights.
type dims struct {
	bits, blocks int
	spread       bool
	weights      engine.HexFloats
}

// soloHooks are the two options only the solo runner sets.
type soloHooks struct {
	prior   *engine.StrataSummary
	onPilot func(*engine.StrataSummary)
}

// surfaces is the surface table. Adding a fault surface to the campaign
// layer is one row here plus its Report field (DESIGN.md, "Fault
// surfaces").
var surfaces = []surface{
	{
		name: "datapath",
		normalize: func(s *Spec) error {
			if s.MBU > 1 && s.Select != "uniform" {
				return fmt.Errorf("campaign: MBU campaigns require the uniform selector, got %q", s.Select)
			}
			return nil
		},
		execute: executor(Spec.NewCampaign,
			func(c *faultinj.Campaign, s Spec) (engine.Surface[*faultinj.Report], engine.Options, error) {
				es, eo := c.Surface(s.Options())
				return es, eo, nil
			},
			func(r *faultinj.Report) *Report { return &Report{Datapath: r} }),
		view: func(r *Report) (view, bool) {
			if r.Datapath == nil {
				return view{}, false
			}
			return view{r.Datapath, r.Datapath.Counts, r.Datapath.Strata, r.Datapath.Masked, r.Datapath.PerBlock}, true
		},
		merge: merger(
			func(r *Report) *faultinj.Report { return r.Datapath },
			func(r *faultinj.Report) *Report { return &Report{Datapath: r} }),
		check: func(r *Report, d dims) error {
			dp := r.Datapath
			if len(dp.PerBit) != d.bits || len(dp.PerBlock) != d.blocks ||
				len(dp.SpreadSum) != d.blocks || len(dp.SpreadN) != d.blocks {
				return fmt.Errorf("campaign: datapath report is %d bits x %d blocks (%d/%d spread accumulators), spec implies %d x %d",
					len(dp.PerBit), len(dp.PerBlock), len(dp.SpreadSum), len(dp.SpreadN), d.bits, d.blocks)
			}
			if n := len(dp.PreMaskedPerBit); n != 0 && n != d.bits {
				return fmt.Errorf("campaign: datapath report splits pre-masked injections over %d bits, spec implies %d", n, d.bits)
			}
			return errors.Join(checkTallies("bit", dp.PerBit), checkTallies("block", dp.PerBlock), checkTallies("target", dp.PerTarget[:]),
				checkSpread("block", dp.SpreadSum, dp.SpreadN, dp.PerBlock, d.spread))
		},
		weights: func(s Spec) engine.HexFloats {
			return faultinj.StratumWeights(accel.NewProfile(models.Build(s.Net), s.Type()), s.Type().Width(), s.MBU)
		},
		decode: func(p *parser, r *Report) { r.Datapath = p.datapath() },
		encode: func(b []byte, r *Report) ([]byte, error) { return appendDatapath(b, r.Datapath) },
	},
	{
		name: "buffer",
		normalize: func(s *Spec) error {
			if s.Buffer == "" {
				s.Buffer = "global"
			}
			if _, err := ParseBuffer(s.Buffer); err != nil {
				return err
			}
			return s.plainOnly()
		},
		execute: executor(
			func(s Spec, g *GoldenCache) (*eyeriss.Campaign, error) {
				c, _, err := s.NewBufferCampaign()
				if err == nil {
					s.useGoldens(&c.Campaign, g)
				}
				return c, err
			},
			func(c *eyeriss.Campaign, s Spec) (engine.Surface[*eyeriss.Report], engine.Options, error) {
				b, err := ParseBuffer(s.Buffer)
				if err != nil {
					return nil, engine.Options{}, err
				}
				es, eo := c.Surface(b, s.BufferOptions())
				return es, eo, nil
			},
			func(r *eyeriss.Report) *Report { return &Report{Buffer: r} }),
		view: func(r *Report) (view, bool) {
			if r.Buffer == nil {
				return view{}, false
			}
			return view{inner: r.Buffer, counts: r.Buffer.Counts, strata: r.Buffer.Strata}, true
		},
		merge: merger(
			func(r *Report) *eyeriss.Report { return r.Buffer },
			func(r *eyeriss.Report) *Report { return &Report{Buffer: r} }),
		weights: func(s Spec) engine.HexFloats {
			b, _ := ParseBuffer(s.Buffer)
			return eyeriss.StratumWeights(models.Build(s.Net), s.Type(), b, s.MBU)
		},
		decode: func(p *parser, r *Report) { r.Buffer = p.buffer() },
		encode: func(b []byte, r *Report) ([]byte, error) { return appendBuffer(b, r.Buffer) },
	},
	{
		name: "systolic",
		normalize: func(s *Spec) error {
			if _, err := systolic.ParseDataflow(s.Dataflow); err != nil {
				return fmt.Errorf("campaign: %v", err)
			}
			return s.plainOnly()
		},
		execute: executor(
			func(s Spec, g *GoldenCache) (*systolic.Campaign, error) {
				c, err := s.NewSystolicCampaign()
				if err == nil {
					s.useGoldens(&c.Campaign, g)
				}
				return c, err
			},
			func(c *systolic.Campaign, s Spec) (engine.Surface[*systolic.Report], engine.Options, error) {
				es, eo := c.Surface(s.SystolicOptions())
				return es, eo, nil
			},
			func(r *systolic.Report) *Report { return &Report{Systolic: r} }),
		view: func(r *Report) (view, bool) {
			if r.Systolic == nil {
				return view{}, false
			}
			return view{inner: r.Systolic, counts: r.Systolic.Counts, strata: r.Systolic.Strata}, true
		},
		merge: merger(
			func(r *Report) *systolic.Report { return r.Systolic },
			func(r *systolic.Report) *Report { return &Report{Systolic: r} }),
		check: func(r *Report, _ dims) error { return checkTallies("latch", r.Systolic.PerLatch[:]) },
		weights: func(s Spec) engine.HexFloats {
			flow, _ := systolic.ParseDataflow(s.Dataflow)
			return systolic.StratumWeights(models.Build(s.Net), s.Type(), flow, s.MBU)
		},
		decode: func(p *parser, r *Report) { r.Systolic = p.systolic() },
		encode: func(b []byte, r *Report) ([]byte, error) { return appendSystolic(b, r.Systolic) },
	},
}

// Surfaces lists the valid Spec.Surface values, in table order.
var Surfaces = func() []string {
	names := make([]string, len(surfaces))
	for i := range surfaces {
		names[i] = surfaces[i].name
	}
	return names
}()

// surfaceOf returns the table row of a surface name.
func surfaceOf(name string) (*surface, error) {
	for i := range surfaces {
		if surfaces[i].name == name {
			return &surfaces[i], nil
		}
	}
	return nil, fmt.Errorf("campaign: unknown surface %q (have %v)", name, Surfaces)
}

// run executes on a bound surface: a lease runs its slot of the campaign's
// plan; without one the whole plan runs in-process, which is where the solo
// runner's hooks apply.
func run[T any, R engine.Mergeable[T]](s engine.Surface[R], opt engine.Options, l *Lease, solo soloHooks) R {
	if l == nil {
		opt.Prior, opt.OnPilotStrata = solo.prior, solo.onPilot
		return engine.Run(s, opt)
	}
	return engine.RunSlot(s, engine.NewPlan(opt, s.Campaign().DType.Width()), l.Slot, l.Table)
}

// executor assembles a row's execute from its typed parts: campaign builds
// the spec's prepared campaign (wired to the shared golden cache when there
// is one), bind is the surface package's Campaign.Surface under the spec's
// options, and wrap tags the surface report for the wire. Every surface's
// campaign comes from the campaignSet — prepared and validated once —
// namespaced per campaign ID when the spec loads mutable external content.
func executor[C, T any, R engine.Mergeable[T]](
	campaign func(Spec, *GoldenCache) (C, error),
	bind func(C, Spec) (engine.Surface[R], engine.Options, error),
	wrap func(R) *Report,
) func(*campaignSet, string, Spec, *Lease, soloHooks) (*Report, error) {
	return func(cs *campaignSet, campaignID string, spec Spec, l *Lease, solo soloHooks) (*Report, error) {
		c, err := prepared(cs, campaignID, spec, campaign)
		if err != nil {
			return nil, err
		}
		s, opt, err := bind(c, spec)
		if err != nil {
			return nil, err
		}
		return wrap(run(s, opt, l, solo)), nil
	}
}

// merger assembles a row's merge from the getter and wrapper of its surface
// report: engine.MergeAll over the inner reports.
func merger[T any, R engine.Mergeable[T]](get func(*Report) R, wrap func(R) *Report) func([]*Report) *Report {
	return func(rs []*Report) *Report {
		inner := make([]R, 0, len(rs))
		for _, r := range rs {
			if r != nil {
				inner = append(inner, get(r))
			}
		}
		return wrap(engine.MergeAll(inner))
	}
}

// row returns the table row of the one surface r carries and its view of
// r, or an error when r carries none or several.
func (r *Report) row() (*surface, view, error) {
	var row *surface
	var v view
	if r != nil {
		for i := range surfaces {
			if sv, ok := surfaces[i].view(r); ok {
				if row != nil {
					return nil, view{}, fmt.Errorf("campaign: report must carry exactly one surface")
				}
				row, v = &surfaces[i], sv
			}
		}
	}
	if row == nil {
		return nil, view{}, fmt.Errorf("campaign: report carries no surface")
	}
	return row, v, nil
}

// view is row's view, for reports already known to carry one surface.
func (r *Report) view() view {
	_, v, err := r.row()
	if err != nil {
		panic(err)
	}
	return v
}

// checkTallies refuses the first of a report's breakdown tallies (per bit,
// block, ALU latch or systolic latch) that no run of injections could have
// produced (sdc.Counts.Check).
func checkTallies(what string, ts []sdc.Counts) error {
	for i, c := range ts {
		if err := c.Check(); err != nil {
			return fmt.Errorf("campaign: %s %d tally: %v", what, i, err)
		}
	}
	return nil
}

// checkSpread refuses the first of a report's spread accumulators (per
// block, or per stratum) that its tallies rule out. Under TrackSpread every
// tallied injection adds one fraction in [0, 1] to its sum (faultinj's
// Tally), and rounding is monotone, so n counts the tally's trials and the
// sum stays within [0, n]; without it both stay zero. A NaN fails too. The
// three slices are equally long.
func checkSpread(what string, sums []float64, ns []int, tallies []sdc.Counts, spread bool) error {
	for i, sum := range sums {
		n := 0
		if spread {
			n = tallies[i].Trials
		}
		if ns[i] != n || !(sum >= 0 && sum <= float64(n)) {
			return fmt.Errorf("campaign: %s %d spread sums %v over %d injections, its tally implies %d", what, i, sum, ns[i], n)
		}
	}
	return nil
}

// validate rejects wire reports that are not the report a slot of spec's
// campaign in the given phase produces: exactly the spec's surface, with
// the dimensions d (spec.dims()) it implies; tallies and spread accumulators
// injections could have produced; and per-stratum tallies — over the spec's
// stratum grid and weights, summing to the overall tally — exactly when the
// phase records strata.
func (r *Report) validate(spec Spec, d dims, phase string) error {
	row, v, err := r.row()
	if err != nil {
		return err
	}
	if row.name != spec.Surface {
		return fmt.Errorf("campaign: %s report for a %s-surface campaign", row.name, spec.Surface)
	}
	if row.check != nil {
		if err := row.check(r, d); err != nil {
			return err
		}
	}
	if err := v.counts.Check(); err != nil {
		return fmt.Errorf("campaign: %s report's overall tally: %v", row.name, err)
	}
	if (v.strata != nil) != (phase != engine.PhaseUniform) {
		return fmt.Errorf("campaign: %s report of a %q-phase slot: strata present is %v", row.name, phase, v.strata != nil)
	}
	if v.strata == nil {
		return nil
	}
	if err := v.strata.Check(d.blocks, d.bits, d.spread); err != nil {
		return err
	}
	if !v.strata.Weight.Equal(d.weights) {
		return fmt.Errorf("campaign: %s report's stratum weights differ from the spec's", row.name)
	}
	// Every stratum tallies at most the overall trials, so the sum cannot
	// wrap around to a forged total.
	var sum sdc.Counts
	for h, c := range v.strata.Counts {
		if c.Trials > v.counts.Trials {
			return fmt.Errorf("campaign: stratum %d tallies %d of the report's %d trials", h, c.Trials, v.counts.Trials)
		}
		sum.Merge(c)
	}
	if sum != v.counts {
		return fmt.Errorf("campaign: %s report's strata sum to %+v, its overall tally is %+v", row.name, sum, v.counts)
	}
	return checkSpread("stratum", v.strata.SpreadSum, v.strata.SpreadN, v.strata.Counts, d.spread)
}

var weightsMemo sync.Map // the Spec fields stratum weights read → engine.HexFloats

// dims returns the report dimensions of a normalized spec, pre-trained
// weights or not. Its stratum weights are the surface package's, as the
// campaign's workers compute them, memoized per process (weightsMemo) so
// that no network is built twice; they must not be modified. Their rows are
// the blocks.
func (s Spec) dims() dims {
	key := Spec{Surface: s.Surface, Net: s.Net, DType: s.DType, Buffer: s.Buffer, Dataflow: s.Dataflow, MBU: s.BufferOptions().UpsetWidth()}
	w, ok := weightsMemo.Load(key)
	if !ok {
		row, _ := surfaceOf(key.Surface)
		w, _ = weightsMemo.LoadOrStore(key, row.weights(key))
	}
	bits := s.Type().Width()
	return dims{bits: bits, blocks: len(w.(engine.HexFloats)) / bits, spread: s.TrackSpread, weights: w.(engine.HexFloats)}
}

// MergeReports folds per-slot wire reports in slot order — nil entries
// (skipped slots) are ignored; nil when every entry is nil. The inner fold
// is engine.MergeAll, the association of every solo run.
func MergeReports(rs []*Report) *Report {
	var row *surface
	for _, r := range rs {
		if r == nil {
			continue
		}
		rr, _, err := r.row()
		if err != nil || (row != nil && rr != row) {
			panic("campaign: merging reports of different surfaces")
		}
		row = rr
	}
	if row == nil {
		return nil
	}
	return row.merge(rs)
}

// Inner returns the one surface report that is set. Its JSON is exactly
// what a solo run of the surface's own package serializes to, which is
// what -out files and the plane's report route emit.
func (r *Report) Inner() any { return r.view().inner }

// Counts returns the inner report's overall SDC tally.
func (r *Report) Counts() sdc.Counts { return r.view().counts }

// Masked returns the injections the incremental engine proved bit-clean
// (datapath only; zero on the other surfaces).
func (r *Report) Masked() int { return r.view().masked }

// Strata returns the inner report's per-stratum tallies (nil for uniform
// campaigns).
func (r *Report) Strata() *engine.StrataSummary { return r.view().strata }

// SDCEstimate returns the inner report's uniform-design SDC estimate for
// criterion k with its 95% CI half-width.
func (r *Report) SDCEstimate(k sdc.Kind) (p, ci95 float64) {
	v := r.view()
	return engine.SDCEstimate(v.counts, v.strata, k)
}
