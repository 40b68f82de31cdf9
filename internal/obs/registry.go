// Prometheus-text instrument registry. The engine's Metrics sink and the
// oracle serving layer (internal/oracle) both expose metrics in the
// Prometheus text exposition format; Registry is the shared encoder, so
// the HELP/TYPE/label/bucket formatting rules live in exactly one place.
//
// Instruments are cheap and concurrency-safe: counters and gauges are a
// single atomic word, histograms one atomic word per bucket. Write renders
// families in registration order and series within a family in
// registration order, which keeps dumps diffable across runs.
package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one metric label pair.
type Label struct {
	Key, Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Registry holds instrument families and renders them as Prometheus text.
// The zero value is not usable; call NewRegistry.
type Registry struct {
	mu     sync.Mutex
	order  []*family
	byName map[string]*family
}

type family struct {
	name, help, typ string
	buckets         []float64 // histograms only
	order           []*instrument
	byKey           map[string]*instrument
}

// instrument is one labelled series: a counter/gauge value or a histogram.
type instrument struct {
	labels string // pre-rendered {k="v",...}, "" when unlabelled

	bits atomic.Uint64 // counter/gauge value (float64 bits)

	counts []atomic.Int64 // histogram: per-bucket (non-cumulative) counts
	inf    atomic.Int64   // histogram: observations above the last bound
	sum    atomic.Uint64  // histogram: sum of observations (float64 bits)

	// ex holds the latest exemplar per bucket (len(counts)+1; the last
	// slot is the +Inf bucket). Exemplars link a bucket's counts to one
	// concrete traced observation — WriteOpenMetrics renders them.
	ex []atomic.Pointer[exemplar]
}

// exemplar is one traced observation attached to a histogram bucket.
type exemplar struct {
	labels string // pre-rendered {k="v",...}
	value  float64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*family)}
}

// renderLabels builds the canonical {k="v",...} form; label order is the
// caller's, values are escaped with %q (the Prometheus escaping rules).
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l.Key, l.Value)
	}
	b.WriteByte('}')
	return b.String()
}

// instrument returns the series for (name, labels), creating family and
// series on first use. Registering one name under two different types or
// bucket layouts is a programming error and panics.
func (r *Registry) instrument(name, help, typ string, buckets []float64, labels []Label) *instrument {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.byName[name]
	if !ok {
		f = &family{name: name, help: help, typ: typ, buckets: buckets, byKey: make(map[string]*instrument)}
		r.byName[name] = f
		r.order = append(r.order, f)
	} else if f.typ != typ {
		panic(fmt.Sprintf("obs: metric %s registered as %s and %s", name, f.typ, typ))
	} else if len(f.buckets) != len(buckets) {
		panic(fmt.Sprintf("obs: histogram %s registered with different bucket layouts", name))
	}
	key := renderLabels(labels)
	ins, ok := f.byKey[key]
	if !ok {
		ins = &instrument{labels: key}
		if typ == "histogram" {
			ins.counts = make([]atomic.Int64, len(buckets))
			ins.ex = make([]atomic.Pointer[exemplar], len(buckets)+1)
		}
		f.byKey[key] = ins
		f.order = append(f.order, ins)
	}
	return ins
}

// Counter is a monotonically increasing value.
type Counter struct{ ins *instrument }

// Counter registers (or fetches) a counter series.
func (r *Registry) Counter(name, help string, labels ...Label) Counter {
	return Counter{r.instrument(name, help, "counter", nil, labels)}
}

// Inc adds one.
func (c Counter) Inc() { c.Add(1) }

// Add adds delta (which must be non-negative for Prometheus semantics;
// not enforced).
func (c Counter) Add(delta float64) { atomicAddFloat(&c.ins.bits, delta) }

// Value returns the current value.
func (c Counter) Value() float64 { return math.Float64frombits(c.ins.bits.Load()) }

// Gauge is a value that can go up and down.
type Gauge struct{ ins *instrument }

// Gauge registers (or fetches) a gauge series.
func (r *Registry) Gauge(name, help string, labels ...Label) Gauge {
	return Gauge{r.instrument(name, help, "gauge", nil, labels)}
}

// Set replaces the value.
func (g Gauge) Set(v float64) { g.ins.bits.Store(math.Float64bits(v)) }

// Add adds delta.
func (g Gauge) Add(delta float64) { atomicAddFloat(&g.ins.bits, delta) }

// Value returns the current value.
func (g Gauge) Value() float64 { return math.Float64frombits(g.ins.bits.Load()) }

// Histogram is a fixed-bucket distribution; bounds are the inclusive
// upper bounds in ascending order (+Inf is implicit).
type Histogram struct {
	ins    *instrument
	bounds []float64
}

// Histogram registers (or fetches) a histogram series with the given
// bucket upper bounds (ascending; +Inf implicit).
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) Histogram {
	return Histogram{r.instrument(name, help, "histogram", bounds, labels), bounds}
}

// Observe records one observation.
func (h Histogram) Observe(v float64) {
	// Binary search for the first bound >= v.
	i := sort.SearchFloat64s(h.bounds, v)
	if i < len(h.bounds) {
		h.ins.counts[i].Add(1)
	} else {
		h.ins.inf.Add(1)
	}
	atomicAddFloat(&h.ins.sum, v)
}

// ObserveExemplar records one observation and attaches an exemplar — the
// latest traced observation to land in each bucket is kept and rendered by
// WriteOpenMetrics (e.g. trace_id=… linking a latency bucket to a request
// trace). With no labels it degrades to a plain Observe.
func (h Histogram) ObserveExemplar(v float64, labels ...Label) {
	i := sort.SearchFloat64s(h.bounds, v)
	if i < len(h.bounds) {
		h.ins.counts[i].Add(1)
	} else {
		h.ins.inf.Add(1)
	}
	atomicAddFloat(&h.ins.sum, v)
	if len(labels) > 0 {
		h.ins.ex[i].Store(&exemplar{labels: renderLabels(labels), value: v})
	}
}

// restore installs pre-accumulated bucket state (package-internal; the
// engine Metrics sink accumulates during Emit and installs once at Close).
func (h Histogram) restore(raw []int64, inf int64, sum float64) {
	for i := range raw {
		h.ins.counts[i].Store(raw[i])
	}
	h.ins.inf.Store(inf)
	h.ins.sum.Store(math.Float64bits(sum))
}

func atomicAddFloat(bits *atomic.Uint64, delta float64) {
	for {
		old := bits.Load()
		val := math.Float64frombits(old) + delta
		if bits.CompareAndSwap(old, math.Float64bits(val)) {
			return
		}
	}
}

// formatValue renders a sample value: integers without an exponent or
// trailing zeros, everything else in Go's shortest 'g' form (what the
// previous hand-rolled writers produced with %d / %g).
func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// labelsWith appends one more pair to a pre-rendered label set (for the
// histogram "le" label).
func labelsWith(labels, key, value string) string {
	extra := fmt.Sprintf("%s=%q", key, value)
	if labels == "" {
		return "{" + extra + "}"
	}
	return labels[:len(labels)-1] + "," + extra + "}"
}

// Write renders every family in registration order, in the classic
// Prometheus text exposition format (no exemplars — the classic parser
// rejects them).
func (r *Registry) Write(w io.Writer) error { return r.write(w, false) }

// WriteOpenMetrics renders the same families OpenMetrics-style: histogram
// bucket lines carry their latest exemplar (`… # {trace_id="…"} value`)
// and the dump ends with the mandatory `# EOF` terminator. Serve this
// variant when the scraper negotiates application/openmetrics-text.
func (r *Registry) WriteOpenMetrics(w io.Writer) error { return r.write(w, true) }

func (r *Registry) write(w io.Writer, openMetrics bool) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	var b strings.Builder
	for _, f := range r.order {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.typ)
		for _, ins := range f.order {
			if f.typ != "histogram" {
				fmt.Fprintf(&b, "%s%s %s\n", f.name, ins.labels, formatValue(math.Float64frombits(ins.bits.Load())))
				continue
			}
			var cum int64
			for i, le := range f.buckets {
				cum += ins.counts[i].Load()
				fmt.Fprintf(&b, "%s_bucket%s %d%s\n", f.name,
					labelsWith(ins.labels, "le", formatValue(le)), cum, ins.exemplarSuffix(openMetrics, i))
			}
			cum += ins.inf.Load()
			fmt.Fprintf(&b, "%s_bucket%s %d%s\n", f.name,
				labelsWith(ins.labels, "le", "+Inf"), cum, ins.exemplarSuffix(openMetrics, len(f.buckets)))
			fmt.Fprintf(&b, "%s_sum%s %s\n", f.name, ins.labels, formatValue(math.Float64frombits(ins.sum.Load())))
			fmt.Fprintf(&b, "%s_count%s %d\n", f.name, ins.labels, cum)
		}
	}
	if openMetrics {
		b.WriteString("# EOF\n")
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// exemplarSuffix renders bucket i's exemplar annotation ("" when absent or
// when writing the classic format).
func (ins *instrument) exemplarSuffix(openMetrics bool, i int) string {
	if !openMetrics || ins.ex == nil {
		return ""
	}
	e := ins.ex[i].Load()
	if e == nil {
		return ""
	}
	return fmt.Sprintf(" # %s %s", e.labels, formatValue(e.value))
}
