package campaign

import (
	"bytes"
	"encoding/json"
	"math"
	"strconv"

	"repro/internal/engine"
	"repro/internal/eyeriss"
	"repro/internal/faultinj"
	"repro/internal/sdc"
	"repro/internal/systolic"
)

// The wire report's codec. Reports cross the control plane in bulk — one
// per ledger slot, each a few dozen small-int tallies — and per-value
// reflection dominates the plane's intake when encoding/json does it. This
// file reads and writes the one form json.Marshal emits for the wire types
// (exact keys in struct order, no whitespace, strings that need no escape)
// by hand. The parser's canonical form is byte-exact: a report it reads is
// exactly AppendJSON's bytes of the value it decodes (no "-0", no zero
// omitempty int, no empty omitempty list, no null weights, lower-case hex
// words without leading zeros, floats as appendFloat spells them), so it
// keeps those bytes (Report.wire) and AppendJSON copies them. encoding/json
// stays the reference: the parser hands every other input to it, and the
// appender writes exactly its bytes. Each surface-table row names its own
// decode and encode; nothing else here tells the surfaces apart.

// DecodeReportBatch decodes a POST /v1/reports body as
// json.NewDecoder(bytes.NewReader(body)).Decode does — the same value, the
// same error. canonical reports whether the body took the hand-written path
// (the canonical form followed by nothing but whitespace); anything else is
// decoded by encoding/json. On the hand-written path every report keeps its
// own bytes, a subslice of body, so body must not change afterwards.
func DecodeReportBatch(body []byte) (req ReportBatchRequest, canonical bool, err error) {
	p := parser{b: body}
	p.lit(`{"reports":`)
	req.Reports = list(&p, (*parser).request)
	p.lit("}")
	for p.i < len(p.b) && isSpace(p.b[p.i]) {
		p.i++
	}
	if !p.bad && p.i == len(p.b) {
		return req, true, nil
	}
	req = ReportBatchRequest{}
	err = json.NewDecoder(bytes.NewReader(body)).Decode(&req)
	return req, false, err
}

// AppendJSON appends json.Marshal(r)'s bytes to dst, and fails where
// json.Marshal does: on a non-finite spread sum, the only float a report
// writes as a number. A report the parser decoded copies its own wire
// bytes. Into a buffer with room it allocates nothing.
func (r *Report) AppendJSON(dst []byte) ([]byte, error) {
	if r == nil {
		return append(dst, "null"...), nil
	}
	if r.wire != nil {
		return append(dst, r.wire...), nil
	}
	dst = append(dst, '{')
	comma := false
	for i := range surfaces {
		s := &surfaces[i]
		if _, ok := s.view(r); !ok {
			continue
		}
		if comma {
			dst = append(dst, ',')
		}
		dst = append(append(append(dst, '"'), s.name...), `":`...)
		var err error
		if dst, err = s.encode(dst, r); err != nil {
			return dst, err
		}
		comma = true
	}
	return append(dst, '}'), nil
}

// AppendInnerJSON appends json.Marshal(r.Inner())'s bytes to dst: the one
// surface report r carries, as a solo run's -out file holds it (before
// indentation).
func (r *Report) AppendInnerJSON(dst []byte) ([]byte, error) {
	row, _, err := r.row()
	if err != nil {
		return dst, err
	}
	return row.encode(dst, r)
}

// parser reads the canonical form. The first byte that does not fit sets
// bad and moves to the end of the input, so every later read fails too and
// the caller falls back to encoding/json; values read after that are junk.
type parser struct {
	b   []byte
	i   int
	bad bool
}

func (p *parser) fail() { p.bad, p.i = true, len(p.b) }

// opt consumes s if the input continues with it.
func (p *parser) opt(s string) bool {
	if len(p.b)-p.i >= len(s) && string(p.b[p.i:p.i+len(s)]) == s {
		p.i += len(s)
		return true
	}
	return false
}

// lit consumes s or fails.
func (p *parser) lit(s string) {
	if !p.opt(s) {
		p.fail()
	}
}

// key consumes `"name":`, after a comma when comma is set, if the input
// continues with it.
func (p *parser) key(comma bool, name string) bool {
	i := p.i
	if (!comma || p.opt(",")) && p.opt(`"`) && p.opt(name) && p.opt(`":`) {
		return true
	}
	p.i = i
	return false
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

// digits consumes a run of decimal digits and returns its length.
func (p *parser) digits() int {
	start := p.i
	for p.i < len(p.b) && p.b[p.i]-'0' < 10 {
		p.i++
	}
	return p.i - start
}

// int reads an integer as strconv writes it (no leading zero, no "-0"), of
// at most 18 digits, which no int64 overflows; encoding/json judges longer
// ones.
func (p *parser) int() int {
	neg := p.opt("-")
	start := p.i
	if d := p.digits(); d == 0 || d > 18 || (d > 1 && p.b[start] == '0') || (neg && p.b[start] == '0') {
		p.fail()
		return 0
	}
	n := 0
	for _, c := range p.b[start:p.i] {
		n = n*10 + int(c-'0')
	}
	if neg {
		return -n
	}
	return n
}

// optInt reads an omitempty int field into dst when it is there; json.Marshal
// leaves a zero one out.
func (p *parser) optInt(key string, dst *int) {
	if p.opt(key) {
		if *dst = p.int(); *dst == 0 {
			p.fail()
		}
	}
}

// float reads a number spelled exactly as appendFloat spells its value (and
// so as encoding/json reads it, by strconv.ParseFloat); any other spelling,
// valid JSON or not, is encoding/json's to judge.
func (p *parser) float() float64 {
	start := p.i
	for p.i < len(p.b) && (p.b[p.i]-'0' < 10 || p.b[p.i] == '-' || p.b[p.i] == '+' || p.b[p.i] == '.' || p.b[p.i] == 'e') {
		p.i++
	}
	lit := p.b[start:p.i]
	f, err := strconv.ParseFloat(string(lit), 64)
	var spelled [32]byte
	if err != nil || string(appendFloat(spelled[:0], f)) != string(lit) {
		p.fail()
	}
	return f
}

// str reads a string of printable ASCII with nothing to unescape.
func (p *parser) str() string {
	p.lit(`"`)
	start := p.i
	for p.i < len(p.b) && p.b[p.i] >= ' ' && p.b[p.i] <= '~' && p.b[p.i] != '"' && p.b[p.i] != '\\' {
		p.i++
	}
	s := string(p.b[start:p.i])
	p.lit(`"`)
	return s
}

// hex reads a quoted word as strconv.AppendUint(_, u, 16) writes it: 1 to
// 16 lower-case hex digits without a leading zero.
func (p *parser) hex() uint64 {
	p.lit(`"`)
	start := p.i
	var u uint64
digits:
	for ; p.i < len(p.b); p.i++ {
		c := p.b[p.i]
		switch {
		case c-'0' < 10:
			c -= '0'
		case c-'a' < 6:
			c -= 'a' - 10
		default:
			break digits
		}
		u = u<<4 | uint64(c)
	}
	if n := p.i - start; n == 0 || n > 16 || (n > 1 && p.b[start] == '0') {
		p.fail()
	}
	p.lit(`"`)
	return u
}

func (p *parser) hexFloat() float64 { return math.Float64frombits(p.hex()) }

// list reads an array of elem, or null — nil for null and a non-nil empty
// slice for [], as encoding/json decodes them.
func list[T any](p *parser, elem func(*parser) T) []T {
	if p.opt("null") {
		return nil
	}
	p.lit("[")
	out := []T{}
	if p.opt("]") {
		return out
	}
	for {
		out = append(out, elem(p))
		if !p.opt(",") {
			break
		}
	}
	p.lit("]")
	return out
}

// some reads an omitempty list field's array, which json.Marshal writes only
// when it has an element.
func some[T any](p *parser, elem func(*parser) T) []T {
	xs := list(p, elem)
	if len(xs) == 0 {
		p.fail()
	}
	return xs
}

// fill reads an array of exactly len(dst) elements into dst (a Go array's
// JSON; encoding/json judges any other length).
func fill[T any](p *parser, dst []T, elem func(*parser) T) {
	p.lit("[")
	for i := range dst {
		if i > 0 {
			p.lit(",")
		}
		dst[i] = elem(p)
	}
	p.lit("]")
}

func (p *parser) request() (q ReportRequest) {
	if p.opt(`{"campaign":`) {
		q.Campaign = p.str()
		p.lit(`,"lease_id":`)
	} else {
		p.lit(`{"lease_id":`)
	}
	q.LeaseID = p.str()
	p.lit(`,"shard":`)
	q.Shard = p.int()
	p.lit(`,"report":`)
	if !p.opt("null") {
		start := p.i
		q.Report = p.report()
		q.Report.wire = p.b[start:p.i:p.i]
	}
	p.lit("}")
	return q
}

// report reads the surfaces' keys in table (struct field) order.
func (p *parser) report() *Report {
	r := &Report{}
	p.lit("{")
	comma := false
	for i := range surfaces {
		if p.key(comma, surfaces[i].name) {
			surfaces[i].decode(p, r)
			comma = true
		}
	}
	p.lit("}")
	return r
}

func (p *parser) counts() (c sdc.Counts) {
	p.lit(`{"Trials":`)
	c.Trials = p.int()
	p.lit(`,"Hits":`)
	fill(p, c.Hits[:], (*parser).int)
	p.lit(`,"DefinedTrials":`)
	fill(p, c.DefinedTrials[:], (*parser).int)
	p.lit("}")
	return c
}

func (p *parser) detection() (d engine.Detection) {
	p.lit(`{"Total":`)
	d.Total = p.int()
	p.lit(`,"DetectedSDC":`)
	d.DetectedSDC = p.int()
	p.lit(`,"DetectedBenign":`)
	d.DetectedBenign = p.int()
	p.lit(`,"TotalSDC":`)
	d.TotalSDC = p.int()
	p.lit("}")
	return d
}

// value reads faultinj.ValueRecord's own form: hex bit patterns, and "sdc"
// only when set.
func (p *parser) value() (v faultinj.ValueRecord) {
	p.lit(`{"g":`)
	v.Golden = p.hexFloat()
	p.lit(`,"f":`)
	v.Faulty = p.hexFloat()
	if p.opt(`,"sdc":`) {
		p.lit("true")
		v.SDC = true
	}
	p.lit("}")
	return v
}

// strata reads an engine.StrataSummary. Its weights are engine.HexFloats,
// which json.Marshal writes as [] when nil, never null.
func (p *parser) strata() *engine.StrataSummary {
	s := &engine.StrataSummary{}
	p.lit(`{"blocks":`)
	s.Blocks = p.int()
	p.lit(`,"bits":`)
	s.Bits = p.int()
	p.lit(`,"weight":`)
	if s.Weight = list(p, (*parser).hexFloat); s.Weight == nil {
		p.fail()
	}
	p.lit(`,"counts":`)
	s.Counts = list(p, (*parser).counts)
	if p.opt(`,"spread_sum":`) {
		s.SpreadSum = some(p, (*parser).float)
	}
	if p.opt(`,"spread_n":`) {
		s.SpreadN = some(p, (*parser).int)
	}
	p.lit("}")
	return s
}

func (p *parser) datapath() *faultinj.Report {
	r := &faultinj.Report{}
	p.lit(`{"Counts":`)
	r.Counts = p.counts()
	p.lit(`,"PerBit":`)
	r.PerBit = list(p, (*parser).counts)
	p.lit(`,"PerBlock":`)
	r.PerBlock = list(p, (*parser).counts)
	p.lit(`,"PerTarget":`)
	fill(p, r.PerTarget[:], (*parser).counts)
	p.lit(`,"Values":`)
	r.Values = list(p, (*parser).value)
	p.lit(`,"SpreadSum":`)
	r.SpreadSum = list(p, (*parser).float)
	p.lit(`,"SpreadN":`)
	r.SpreadN = list(p, (*parser).int)
	p.lit(`,"Masked":`)
	r.Masked = p.int()
	p.optInt(`,"PreMasked":`, &r.PreMasked)
	if p.opt(`,"PreMaskedPerBit":`) {
		r.PreMaskedPerBit = some(p, (*parser).int)
	}
	p.lit(`,"Detection":`)
	r.Detection = p.detection()
	if p.opt(`,"Strata":`) {
		r.Strata = p.strata()
	}
	p.lit("}")
	return r
}

func (p *parser) buffer() *eyeriss.Report {
	r := &eyeriss.Report{}
	p.lit(`{"Counts":`)
	r.Counts = p.counts()
	p.lit(`,"Detection":`)
	r.Detection = p.detection()
	p.optInt(`,"PreMasked":`, &r.PreMasked)
	if p.opt(`,"Strata":`) {
		r.Strata = p.strata()
	}
	p.lit("}")
	return r
}

func (p *parser) systolic() *systolic.Report {
	r := &systolic.Report{}
	p.lit(`{"Counts":`)
	r.Counts = p.counts()
	p.lit(`,"PerLatch":`)
	fill(p, r.PerLatch[:], (*parser).counts)
	p.lit(`,"Detection":`)
	r.Detection = p.detection()
	p.optInt(`,"ArchMasked":`, &r.ArchMasked)
	p.optInt(`,"PreMasked":`, &r.PreMasked)
	if p.opt(`,"Strata":`) {
		r.Strata = p.strata()
	}
	p.lit("}")
	return r
}

// The appenders write what json.Marshal writes for each type: fields in
// struct order, omitempty fields only when set, nil slices as null.

// each appends xs as a JSON array of elem, or null when xs is nil.
func each[T any](b []byte, xs []T, elem func([]byte, T) []byte) []byte {
	if xs == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, x := range xs {
		if i > 0 {
			b = append(b, ',')
		}
		b = elem(b, x)
	}
	return append(b, ']')
}

func appendInt(b []byte, n int) []byte { return strconv.AppendInt(b, int64(n), 10) }

// appendFloat is encoding/json's float64 rule: 'f' form, 'e' form below
// 1e-6 and from 1e21 on, with a two-digit negative exponent cut to one
// (e-07 → e-7). f must be finite (see finite).
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// finite is json.Marshal's refusal of a non-finite float, with its error.
func finite(xs []float64) error {
	for _, f := range xs {
		if math.IsNaN(f) || math.IsInf(f, 0) {
			_, err := json.Marshal(f)
			return err
		}
	}
	return nil
}

func appendHex(b []byte, f float64) []byte {
	b = strconv.AppendUint(append(b, '"'), math.Float64bits(f), 16)
	return append(b, '"')
}

func appendCounts(b []byte, c sdc.Counts) []byte {
	b = appendInt(append(b, `{"Trials":`...), c.Trials)
	b = each(append(b, `,"Hits":`...), c.Hits[:], appendInt)
	b = each(append(b, `,"DefinedTrials":`...), c.DefinedTrials[:], appendInt)
	return append(b, '}')
}

func appendDetection(b []byte, d engine.Detection) []byte {
	b = appendInt(append(b, `{"Total":`...), d.Total)
	b = appendInt(append(b, `,"DetectedSDC":`...), d.DetectedSDC)
	b = appendInt(append(b, `,"DetectedBenign":`...), d.DetectedBenign)
	b = appendInt(append(b, `,"TotalSDC":`...), d.TotalSDC)
	return append(b, '}')
}

// appendOmitInt appends an omitempty int field.
func appendOmitInt(b []byte, key string, n int) []byte {
	if n == 0 {
		return b
	}
	return appendInt(append(b, key...), n)
}

func appendValue(b []byte, v faultinj.ValueRecord) []byte {
	b = appendHex(append(b, `{"g":`...), v.Golden)
	b = appendHex(append(b, `,"f":`...), v.Faulty)
	if v.SDC {
		b = append(b, `,"sdc":true`...)
	}
	return append(b, '}')
}

// appendStrata appends a non-nil summary's "Strata" field. engine.HexFloats
// writes nil weights as [], never null.
func appendStrata(b []byte, s *engine.StrataSummary) ([]byte, error) {
	if s == nil {
		return b, nil
	}
	if err := finite(s.SpreadSum); err != nil {
		return b, err
	}
	b = appendInt(append(b, `,"Strata":{"blocks":`...), s.Blocks)
	b = appendInt(append(b, `,"bits":`...), s.Bits)
	b = append(b, `,"weight":`...)
	if s.Weight == nil {
		b = append(b, "[]"...)
	} else {
		b = each(b, s.Weight, appendHex)
	}
	b = each(append(b, `,"counts":`...), s.Counts, appendCounts)
	if len(s.SpreadSum) != 0 {
		b = each(append(b, `,"spread_sum":`...), s.SpreadSum, appendFloat)
	}
	if len(s.SpreadN) != 0 {
		b = each(append(b, `,"spread_n":`...), s.SpreadN, appendInt)
	}
	return append(b, '}'), nil
}

func appendDatapath(b []byte, r *faultinj.Report) ([]byte, error) {
	if err := finite(r.SpreadSum); err != nil {
		return b, err
	}
	b = appendCounts(append(b, `{"Counts":`...), r.Counts)
	b = each(append(b, `,"PerBit":`...), r.PerBit, appendCounts)
	b = each(append(b, `,"PerBlock":`...), r.PerBlock, appendCounts)
	b = each(append(b, `,"PerTarget":`...), r.PerTarget[:], appendCounts)
	b = each(append(b, `,"Values":`...), r.Values, appendValue)
	b = each(append(b, `,"SpreadSum":`...), r.SpreadSum, appendFloat)
	b = each(append(b, `,"SpreadN":`...), r.SpreadN, appendInt)
	b = appendInt(append(b, `,"Masked":`...), r.Masked)
	b = appendOmitInt(b, `,"PreMasked":`, r.PreMasked)
	if len(r.PreMaskedPerBit) != 0 {
		b = each(append(b, `,"PreMaskedPerBit":`...), r.PreMaskedPerBit, appendInt)
	}
	b = appendDetection(append(b, `,"Detection":`...), r.Detection)
	b, err := appendStrata(b, r.Strata)
	return append(b, '}'), err
}

func appendBuffer(b []byte, r *eyeriss.Report) ([]byte, error) {
	b = appendCounts(append(b, `{"Counts":`...), r.Counts)
	b = appendDetection(append(b, `,"Detection":`...), r.Detection)
	b = appendOmitInt(b, `,"PreMasked":`, r.PreMasked)
	b, err := appendStrata(b, r.Strata)
	return append(b, '}'), err
}

func appendSystolic(b []byte, r *systolic.Report) ([]byte, error) {
	b = appendCounts(append(b, `{"Counts":`...), r.Counts)
	b = each(append(b, `,"PerLatch":`...), r.PerLatch[:], appendCounts)
	b = appendDetection(append(b, `,"Detection":`...), r.Detection)
	b = appendOmitInt(b, `,"ArchMasked":`, r.ArchMasked)
	b = appendOmitInt(b, `,"PreMasked":`, r.PreMasked)
	b, err := appendStrata(b, r.Strata)
	return append(b, '}'), err
}
