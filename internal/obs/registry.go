package obs

import (
	"sort"
	"sync"
)

// named is the process-wide name→Metrics export registry that
// internal/obshttp serves. Binding a bound name swaps its value in
// place, so a benchmark sweep that rebuilds its engine per data point
// keeps one stable series name.
type named struct {
	mu sync.Mutex
	m  map[string]*Metrics
}

// set binds name to v, or removes the binding when bound is false. Empty
// names are ignored.
func (r *named) set(name string, v *Metrics, bound bool) {
	if name == "" {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if !bound {
		delete(r.m, name)
		return
	}
	if r.m == nil {
		r.m = map[string]*Metrics{}
	}
	r.m[name] = v
}

func (r *named) get(name string) (*Metrics, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	v, ok := r.m[name]
	return v, ok
}

// names returns the bound names in sorted order.
func (r *named) names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.m))
	for n := range r.m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// each calls f for every binding in sorted name order. f runs outside
// the lock, so it may probe, snapshot, register or rebind.
func (r *named) each(f func(name string, v *Metrics)) {
	for _, n := range r.names() {
		if v, ok := r.get(n); ok {
			f(n, v)
		}
	}
}

// registered is the one registry: every name→Metrics binding becomes an
// `engine="name"` label set on /metrics and an entry on the debug
// endpoints.
var registered named

// Register binds name to m in the process-wide export registry.
// Registering a bound name rebinds it; registering a nil Metrics removes
// the binding. Empty names are ignored.
func Register(name string, m *Metrics) { registered.set(name, m, m != nil) }

// Registered returns the Metrics bound to name, nil when unbound.
func Registered(name string) *Metrics {
	m, _ := registered.get(name)
	return m
}

// RegisteredNames returns the bound names in sorted order.
func RegisteredNames() []string { return registered.names() }

// EachRegistered calls f for every binding in sorted name order. f runs
// outside the registry lock, so it may snapshot, register or rebind.
func EachRegistered(f func(name string, m *Metrics)) { registered.each(f) }
