package campaign

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/eyeriss"
	"repro/internal/faultinj"
	"repro/internal/sdc"
	"repro/internal/systolic"
)

// Report is the surface-tagged wire report of one ledger slot (and of the
// merged campaign): exactly one of Datapath, Buffer or Systolic is set,
// matching Spec.Surface. It exists so one ledger, journal format and
// worker protocol carry every fault surface; the inner reports
// keep their own JSON shapes, so a distributed campaign's final report
// still byte-compares against the solo faultinj/eyeriss/systolic run.
type Report struct {
	Datapath *faultinj.Report `json:"datapath,omitempty"`
	Buffer   *eyeriss.Report  `json:"buffer,omitempty"`
	Systolic *systolic.Report `json:"systolic,omitempty"`
}

// surfaces returns how many inner reports are set.
func (r *Report) surfaces() int {
	n := 0
	if r.Datapath != nil {
		n++
	}
	if r.Buffer != nil {
		n++
	}
	if r.Systolic != nil {
		n++
	}
	return n
}

// validate rejects wire reports that don't carry exactly the spec's
// surface.
func (r *Report) validate(spec Spec) error {
	if r == nil {
		return fmt.Errorf("campaign: report missing body")
	}
	if r.surfaces() != 1 {
		return fmt.Errorf("campaign: report must carry exactly one surface")
	}
	if spec.BufferSurface() != (r.Buffer != nil) || spec.SystolicSurface() != (r.Systolic != nil) {
		return fmt.Errorf("campaign: report surface does not match spec surface %q", spec.Surface)
	}
	return nil
}

// Merge folds r2 into r (same surface on both sides). Like the inner
// merges, shard-order folding is part of the bit-identity contract.
func (r *Report) Merge(r2 *Report) {
	switch {
	case r2 == nil:
	case r.Datapath != nil && r2.Datapath != nil:
		r.Datapath.Merge(r2.Datapath)
	case r.Buffer != nil && r2.Buffer != nil:
		r.Buffer.Merge(r2.Buffer)
	case r.Systolic != nil && r2.Systolic != nil:
		r.Systolic.Merge(r2.Systolic)
	default:
		panic("campaign: merging reports of different surfaces")
	}
}

// MergeReports folds per-slot wire reports in slot order — nil entries
// (skipped slots) are ignored; nil when every entry is nil. The inner fold
// association is exactly the surface's own MergeReports.
func MergeReports(rs []*Report) *Report {
	var dps []*faultinj.Report
	var bufs []*eyeriss.Report
	var syss []*systolic.Report
	hasDP, hasBuf, hasSys := false, false, false
	for _, r := range rs {
		if r == nil {
			continue
		}
		dps = append(dps, r.Datapath)
		bufs = append(bufs, r.Buffer)
		syss = append(syss, r.Systolic)
		hasDP = hasDP || r.Datapath != nil
		hasBuf = hasBuf || r.Buffer != nil
		hasSys = hasSys || r.Systolic != nil
	}
	set := 0
	for _, has := range []bool{hasDP, hasBuf, hasSys} {
		if has {
			set++
		}
	}
	switch {
	case set > 1:
		panic("campaign: merging reports of different surfaces")
	case hasBuf:
		return &Report{Buffer: eyeriss.MergeReports(bufs)}
	case hasSys:
		return &Report{Systolic: systolic.MergeReports(syss)}
	case hasDP:
		return &Report{Datapath: faultinj.MergeReports(dps)}
	}
	return nil
}

// Inner returns the one surface report that is set. Its JSON is exactly
// what a solo faultinj/eyeriss/systolic run of the same spec serializes
// to, which is what -out files and the plane's report route emit.
func (r *Report) Inner() any {
	switch {
	case r.Buffer != nil:
		return r.Buffer
	case r.Systolic != nil:
		return r.Systolic
	}
	return r.Datapath
}

// Counts returns the inner report's overall SDC tally.
func (r *Report) Counts() sdc.Counts {
	switch {
	case r.Buffer != nil:
		return r.Buffer.Counts
	case r.Systolic != nil:
		return r.Systolic.Counts
	}
	return r.Datapath.Counts
}

// Masked returns the injections the incremental engine proved bit-clean
// (datapath only; the other surfaces always classify the full output).
func (r *Report) Masked() int {
	if r.Datapath != nil {
		return r.Datapath.Masked
	}
	return 0
}

// PerBlock returns the per-block tallies of a datapath report; nil for
// the other surfaces (their per-layer view lives in Strata).
func (r *Report) PerBlock() []sdc.Counts {
	if r.Datapath != nil {
		return r.Datapath.PerBlock
	}
	return nil
}

// Strata returns the inner report's per-stratum tallies (nil for uniform
// campaigns).
func (r *Report) Strata() *engine.StrataSummary {
	switch {
	case r.Buffer != nil:
		return r.Buffer.Strata
	case r.Systolic != nil:
		return r.Systolic.Strata
	}
	return r.Datapath.Strata
}

// SDCEstimate returns the inner report's uniform-design SDC estimate for
// criterion k with its 95% CI half-width.
func (r *Report) SDCEstimate(k sdc.Kind) (p, ci95 float64) {
	switch {
	case r.Buffer != nil:
		return r.Buffer.SDCEstimate(k)
	case r.Systolic != nil:
		return r.Systolic.SDCEstimate(k)
	}
	return r.Datapath.SDCEstimate(k)
}
