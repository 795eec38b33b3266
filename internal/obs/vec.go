package obs

import (
	"sort"
	"strings"
	"sync"
)

// Labeled metric vectors. A vector is a family of instruments of one
// name distinguished by a small, fixed set of label keys — request
// counts by {endpoint, status}, latency by {endpoint, arch}, drift
// scores by {arch, signal}. Before vectors existed, callers encoded
// labels into the metric name itself ("spmv/CSR/calls"); vectors keep
// the name clean and let the Prometheus exposition render real label
// sets.
//
// Every child instrument is registered in the owning Registry under its
// full series key — `name{k1="v1",k2="v2"}` with sorted keys fixed at
// vector creation — so Snapshot and the JSON/expvar views pick
// labeled series up with no extra plumbing, and the exposition layer
// recovers name and labels by splitting the key at the first '{'.

// labelEscaper escapes label values for the series key, matching the
// Prometheus text-format escaping rules for label values.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// SeriesKey builds the registry key of one labeled series:
// `name{k1="v1",k2="v2"}`. Keys appear in the order given (vectors fix
// an order at creation, so one series always maps to one key).
func SeriesKey(name string, keys, values []string) string {
	var b strings.Builder
	b.Grow(len(name) + 16*len(keys))
	b.WriteString(name)
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(labelEscaper.Replace(values[i]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// SplitSeries splits a registry key into the bare metric name and the
// raw label text (`k1="v1",k2="v2"`, empty for unlabeled series).
func SplitSeries(key string) (name, labels string) {
	i := strings.IndexByte(key, '{')
	if i < 0 {
		return key, ""
	}
	return key[:i], strings.TrimSuffix(key[i+1:], "}")
}

// vecCore is the shared shape of the three vector types: the label-key
// schema plus a cache from joined label values to the child's series
// key, so the steady state costs one read-locked map lookup.
type vecCore struct {
	name string
	keys []string

	mu    sync.RWMutex
	cache map[string]string // joined values -> series key
}

func newVecCore(name string, keys []string) vecCore {
	return vecCore{name: name, keys: append([]string(nil), keys...), cache: map[string]string{}}
}

// seriesFor resolves the series key for values, building and caching it
// on first use. It panics on arity mismatch — label schemas are fixed
// at vector creation and a wrong count is a programming error no
// request should be able to trigger.
func (v *vecCore) seriesFor(values []string) string {
	if len(values) != len(v.keys) {
		panic("obs: vector " + v.name + " expects " + strings.Join(v.keys, ",") + " label values")
	}
	ck := strings.Join(values, "\xff")
	v.mu.RLock()
	key, ok := v.cache[ck]
	v.mu.RUnlock()
	if ok {
		return key
	}
	key = SeriesKey(v.name, v.keys, values)
	v.mu.Lock()
	v.cache[ck] = key
	v.mu.Unlock()
	return key
}

// Series lists the registered series keys of the vector, sorted.
func (v *vecCore) Series() []string {
	v.mu.RLock()
	out := make([]string, 0, len(v.cache))
	for _, key := range v.cache {
		out = append(out, key)
	}
	v.mu.RUnlock()
	sort.Strings(out)
	return out
}

// CounterVec is a family of counters sharing one name, keyed by label
// values. Obtain children with With; children are ordinary *Counter
// instruments living in the owning registry, so hot paths should
// resolve them once and hold the pointer.
type CounterVec struct {
	vecCore
	r *Registry
}

// CounterVec returns the named counter vector with the given label
// keys, creating it if needed. Like all registry instruments it is
// get-or-create: the first caller fixes the label schema.
func (r *Registry) CounterVec(name string, keys ...string) *CounterVec {
	r.mu.Lock()
	defer r.mu.Unlock()
	if v := r.cvecs[name]; v != nil {
		return v
	}
	v := &CounterVec{vecCore: newVecCore(name, keys), r: r}
	r.cvecs[name] = v
	return v
}

// With returns the child counter for the given label values (one per
// label key, in schema order).
func (v *CounterVec) With(values ...string) *Counter {
	return v.r.Counter(v.seriesFor(values))
}

// GaugeVec is a family of gauges sharing one name, keyed by label
// values.
type GaugeVec struct {
	vecCore
	r *Registry
}

// GaugeVec returns the named gauge vector, creating it if needed.
func (r *Registry) GaugeVec(name string, keys ...string) *GaugeVec {
	r.mu.Lock()
	defer r.mu.Unlock()
	if v := r.gvecs[name]; v != nil {
		return v
	}
	v := &GaugeVec{vecCore: newVecCore(name, keys), r: r}
	r.gvecs[name] = v
	return v
}

// With returns the child gauge for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge {
	return v.r.Gauge(v.seriesFor(values))
}

// HistogramVec is a family of histograms sharing one name and bucket
// bounds, keyed by label values.
type HistogramVec struct {
	vecCore
	r      *Registry
	bounds []float64
}

// HistogramVec returns the named histogram vector with the given bucket
// bounds, creating it if needed (bounds are fixed by the first caller,
// like Histogram).
func (r *Registry) HistogramVec(name string, bounds []float64, keys ...string) *HistogramVec {
	r.mu.Lock()
	defer r.mu.Unlock()
	if v := r.hvecs[name]; v != nil {
		return v
	}
	v := &HistogramVec{vecCore: newVecCore(name, keys), r: r, bounds: append([]float64(nil), bounds...)}
	r.hvecs[name] = v
	return v
}

// With returns the child histogram for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	return v.r.Histogram(v.seriesFor(values), v.bounds)
}
