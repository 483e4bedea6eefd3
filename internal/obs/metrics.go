// Package obs is the runtime's observability layer: a lock-cheap metrics
// registry (atomic counters, gauges and log-bucketed latency histograms
// with quantile estimation, exposed in Prometheus text format) and a
// per-operation trace recorder capturing every level attempted, every site
// contacted, retries, timeouts and 2PC phase outcomes.
//
// Everything is nil-receiver safe: a nil *Registry hands out nil
// instruments, and recording on a nil instrument is a no-op, so
// instrumented hot paths cost a pointer check when observability is off.
package obs

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// metricType enumerates the exposition types a family can have.
type metricType int

const (
	counterType metricType = iota
	gaugeType
	histogramType
	counterFuncType
)

func (t metricType) String() string {
	switch t {
	case counterType, counterFuncType:
		return "counter"
	case gaugeType:
		return "gauge"
	default:
		return "histogram"
	}
}

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Uint64 }

// Inc adds one. Safe on a nil receiver (no-op).
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n. Safe on a nil receiver (no-op).
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 on a nil receiver).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic float64 gauge.
type Gauge struct{ bits atomic.Uint64 }

// Set stores v. Safe on a nil receiver (no-op).
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Add adjusts the gauge by delta with a CAS loop. Safe on a nil receiver
// (no-op).
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value (0 on a nil receiver).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// series is one labeled instance of a family.
type series struct {
	labels string // rendered {k="v",...} or ""
	c      *Counter
	g      *Gauge
	h      *Histogram
}

// family is one named metric with all its labeled series.
type family struct {
	name   string
	help   string
	typ    metricType
	labels []string

	mu     sync.Mutex
	series map[string]*series
	order  []string

	cfn func() uint64 // counterFuncType
}

// Registry holds named metric families. All methods are safe for concurrent
// use and safe on a nil receiver (returning nil instruments).
type Registry struct {
	mu         sync.Mutex
	families   []*family
	byName     map[string]*family
	collectors []func()

	// scrape serializes WritePrometheus, so one exposition's collect
	// callbacks and rendering never interleave with another's.
	scrape sync.Mutex
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// family returns the named family, creating it on first use. Re-registering
// a name with a different type or label set is a programming error.
func (r *Registry) getFamily(name, help string, typ metricType, labels ...string) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.byName[name]; ok {
		if f.typ != typ || len(f.labels) != len(labels) {
			panic(fmt.Sprintf("obs: metric %q re-registered as %v with labels %v (was %v, %v)",
				name, typ, labels, f.typ, f.labels))
		}
		return f
	}
	f := &family{
		name:   name,
		help:   help,
		typ:    typ,
		labels: append([]string(nil), labels...),
		series: make(map[string]*series),
	}
	r.byName[name] = f
	r.families = append(r.families, f)
	return f
}

// get returns the series for the rendered label string, creating it on
// first use.
func (f *family) get(labels string) *series {
	f.mu.Lock()
	defer f.mu.Unlock()
	if s, ok := f.series[labels]; ok {
		return s
	}
	s := &series{labels: labels}
	switch f.typ {
	case counterType:
		s.c = &Counter{}
	case gaugeType:
		s.g = &Gauge{}
	case histogramType:
		s.h = newHistogram()
	}
	f.series[labels] = s
	f.order = append(f.order, labels)
	return s
}

// renderLabels builds the {k="v",...} suffix for a label/value pairing.
func renderLabels(names, values []string) string {
	if len(names) != len(values) {
		panic(fmt.Sprintf("obs: %d label values for label names %v", len(values), names))
	}
	if len(names) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabel escapes a label value per the Prometheus text format.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// Counter returns (creating if needed) the unlabeled counter name.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	return r.getFamily(name, help, counterType).get("").c
}

// Gauge returns (creating if needed) the unlabeled gauge name.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	return r.getFamily(name, help, gaugeType).get("").g
}

// Histogram returns (creating if needed) the unlabeled histogram name.
func (r *Registry) Histogram(name, help string) *Histogram {
	if r == nil {
		return nil
	}
	return r.getFamily(name, help, histogramType).get("").h
}

// CounterFunc registers a counter whose value is read from fn at scrape
// time — for wrapping pre-existing atomic totals without double counting.
func (r *Registry) CounterFunc(name, help string, fn func() uint64) {
	if r == nil {
		return
	}
	f := r.getFamily(name, help, counterFuncType)
	f.cfn = fn
}

// CounterVec is a counter family with labels.
type CounterVec struct{ f *family }

// CounterVec returns (creating if needed) a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	if r == nil {
		return nil
	}
	return &CounterVec{f: r.getFamily(name, help, counterType, labels...)}
}

// With returns the counter for the given label values.
func (v *CounterVec) With(values ...string) *Counter {
	if v == nil {
		return nil
	}
	return v.f.get(renderLabels(v.f.labels, values)).c
}

// GaugeVec is a gauge family with labels.
type GaugeVec struct{ f *family }

// GaugeVec returns (creating if needed) a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	if r == nil {
		return nil
	}
	return &GaugeVec{f: r.getFamily(name, help, gaugeType, labels...)}
}

// With returns the gauge for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge {
	if v == nil {
		return nil
	}
	return v.f.get(renderLabels(v.f.labels, values)).g
}

// Reset drops every series of the family (used when a label dimension —
// e.g. the set of physical levels — changes shape at reconfiguration).
func (v *GaugeVec) Reset() {
	if v == nil {
		return
	}
	v.f.mu.Lock()
	v.f.series = make(map[string]*series)
	v.f.order = nil
	v.f.mu.Unlock()
}

// HistogramVec is a histogram family with labels.
type HistogramVec struct{ f *family }

// HistogramVec returns (creating if needed) a labeled histogram family.
func (r *Registry) HistogramVec(name, help string, labels ...string) *HistogramVec {
	if r == nil {
		return nil
	}
	return &HistogramVec{f: r.getFamily(name, help, histogramType, labels...)}
}

// With returns the histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	if v == nil {
		return nil
	}
	return v.f.get(renderLabels(v.f.labels, values)).h
}

// OnCollect registers a callback run at the start of every exposition, for
// metrics that are computed rather than recorded (e.g. per-level load
// gauges derived from replica counters).
func (r *Registry) OnCollect(fn func()) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.collectors = append(r.collectors, fn)
	r.mu.Unlock()
}

// WritePrometheus renders every family in the Prometheus text exposition
// format (version 0.0.4), running collect callbacks first. Concurrent calls
// run one at a time.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	// The exposition is rendered whole before w sees it, so a slow reader
	// holds up no other scrape.
	var buf bytes.Buffer
	r.scrape.Lock()
	r.mu.Lock()
	var collectors []func()
	collectors = append(collectors, r.collectors...)
	r.mu.Unlock()
	for _, fn := range collectors {
		fn()
	}
	r.mu.Lock()
	fams := append([]*family(nil), r.families...)
	r.mu.Unlock()
	for _, f := range fams {
		_ = f.write(&buf) // a bytes.Buffer does not fail
	}
	r.scrape.Unlock()
	_, err := w.Write(buf.Bytes())
	return err
}

// write renders one family.
func (f *family) write(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ); err != nil {
		return err
	}
	if f.typ == counterFuncType {
		_, err := fmt.Fprintf(w, "%s %d\n", f.name, f.cfn())
		return err
	}
	f.mu.Lock()
	keys := append([]string(nil), f.order...)
	byKey := make(map[string]*series, len(keys))
	for _, k := range keys {
		byKey[k] = f.series[k]
	}
	f.mu.Unlock()
	sort.Strings(keys)
	for _, k := range keys {
		s := byKey[k]
		if s == nil {
			continue
		}
		switch f.typ {
		case counterType:
			if _, err := fmt.Fprintf(w, "%s%s %d\n", f.name, s.labels, s.c.Value()); err != nil {
				return err
			}
		case gaugeType:
			if _, err := fmt.Fprintf(w, "%s%s %s\n", f.name, s.labels, formatFloat(s.g.Value())); err != nil {
				return err
			}
		case histogramType:
			if err := s.h.write(w, f.name, s.labels); err != nil {
				return err
			}
		}
	}
	return nil
}

// formatFloat renders a float the way Prometheus expects.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
