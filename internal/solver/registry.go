package solver

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// The registry maps stable names to Solver implementations. Algorithm
// packages register themselves in init, so importing a package makes
// its solvers dispatchable by name; the gridsched facade imports every
// implementation and therefore always sees the full set.
//
// Alongside concrete names the registry holds schemes: dynamic
// resolvers for parameterized names of the form "prefix:spec" (the
// portfolio's "portfolio:pa-cga+tabu"). Lookup consults schemes only
// after exact-name resolution fails, so a concretely registered preset
// shadows its scheme expansion.
var (
	regMu    sync.RWMutex
	registry = map[string]Solver{}
	schemes  = map[string]func(name string) (Solver, error){}
)

// Register adds s under s.Name(). It panics on an empty name or a
// duplicate registration: both are programmer errors wiring up a new
// solver, not runtime conditions.
func Register(s Solver) {
	name := s.Name()
	if name == "" {
		panic("solver: Register with empty name")
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("solver: duplicate registration of %q", name))
	}
	registry[name] = s
}

// RegisterScheme adds a dynamic resolver for solver names of the form
// "prefix:spec". The resolver receives the full requested name and
// must return a Solver whose Name() echoes it (so the registry
// contract — Lookup(n).Name() == n — holds for dynamic names too) or a
// descriptive error. Like Register, it panics on an empty or duplicate
// prefix: both are programmer errors wiring up a scheme.
func RegisterScheme(prefix string, resolve func(name string) (Solver, error)) {
	if prefix == "" || strings.Contains(prefix, ":") {
		panic(fmt.Sprintf("solver: RegisterScheme with invalid prefix %q", prefix))
	}
	if resolve == nil {
		panic("solver: RegisterScheme with nil resolver")
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := schemes[prefix]; dup {
		panic(fmt.Sprintf("solver: duplicate scheme registration of %q", prefix))
	}
	schemes[prefix] = resolve
}

// Lookup resolves a solver by name: an exact registration first, then —
// for names of the form "prefix:spec" — the prefix's registered scheme
// resolver.
func Lookup(name string) (Solver, error) {
	regMu.RLock()
	s, ok := registry[name]
	var resolve func(string) (Solver, error)
	if !ok {
		if i := strings.IndexByte(name, ':'); i > 0 {
			resolve = schemes[name[:i]]
		}
	}
	regMu.RUnlock()
	if ok {
		return s, nil
	}
	if resolve != nil {
		return resolve(name)
	}
	return nil, fmt.Errorf("solver: unknown solver %q (have: %v)", name, Names())
}

// Names lists every registered solver name, sorted.
func Names() []string {
	regMu.RLock()
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	regMu.RUnlock()
	sort.Strings(names)
	return names
}

// Info pairs a registry name with its one-line description.
type Info struct {
	Name        string `json:"name"`
	Description string `json:"description"`
}

// List describes every registered solver, sorted by name — the shared
// source for the CLI and HTTP listings.
func List() []Info {
	names := Names()
	infos := make([]Info, 0, len(names))
	for _, name := range names {
		s, err := Lookup(name)
		if err != nil {
			continue // unregistered concurrently; skip rather than fail a listing
		}
		infos = append(infos, Info{Name: name, Description: s.Describe()})
	}
	return infos
}
