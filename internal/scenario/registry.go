package scenario

import (
	"fmt"
	"sort"
	"sync"

	"selfishnet/internal/export"
)

// Native is a hand-written experiment runner (the paper reproductions).
// Native runners are deterministic given their Params: explicit seeds,
// no wall clock, so tables regenerate bit-identically at any
// parallelism.
type Native func(Params) (*export.Table, error)

type catalogEntry struct {
	desc   string
	native Native
}

var (
	regMu    sync.RWMutex
	registry = map[string]catalogEntry{}
)

// RegisterNative adds a native runner to the catalog under id; the
// catalog spec is the trivial {"experiment": id} routing spec. Panics on
// duplicate or empty ids (registration is programmer error territory).
func RegisterNative(id, desc string, fn Native) {
	if id == "" || fn == nil {
		panic("scenario: RegisterNative needs an id and a runner")
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[id]; dup {
		panic(fmt.Sprintf("scenario: duplicate experiment id %q", id))
	}
	registry[id] = catalogEntry{desc: desc, native: fn}
}

// IDs returns the catalog identifiers in sorted order.
func IDs() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	return idsLocked()
}

// Describe returns the one-line description of a catalog entry.
func Describe(id string) (string, error) {
	regMu.RLock()
	defer regMu.RUnlock()
	e, ok := registry[id]
	if !ok {
		return "", fmt.Errorf("scenario: unknown experiment %q", id)
	}
	return e.desc, nil
}

// CatalogSpec returns the routing spec {"experiment": id} of a catalog
// entry — its JSON-emittable form (`topogame spec -emit`).
func CatalogSpec(id string) (Spec, error) {
	regMu.RLock()
	defer regMu.RUnlock()
	if _, ok := registry[id]; !ok {
		return Spec{}, fmt.Errorf("scenario: unknown experiment %q (have %v)", id, idsLocked())
	}
	return Spec{Name: id, Experiment: id}, nil
}

// idsLocked is IDs without locking, for error messages under regMu.
func idsLocked() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// nativeRunner resolves the native runner behind an experiment id.
func nativeRunner(id string) (Native, error) {
	regMu.RLock()
	defer regMu.RUnlock()
	e, ok := registry[id]
	if !ok {
		return nil, fmt.Errorf("scenario: unknown experiment %q (have %v)", id, idsLocked())
	}
	return e.native, nil
}

// Run executes the catalog entry with the given ID through the spec
// engine.
func Run(id string, p Params) (*export.Table, error) {
	spec, err := CatalogSpec(id)
	if err != nil {
		return nil, err
	}
	return RunSpec(spec, p)
}

// RunAll executes the given catalog entries concurrently and returns
// their tables in input order. nil (or empty) ids selects the whole
// catalog in sorted-ID order. parallelism bounds how many runners
// execute at once: 0 selects runtime.GOMAXPROCS(0), 1 forces sequential
// execution.
//
// Every entry derives all randomness from Params (explicit seeds, no
// wall clock or shared state), so each table — and therefore the whole
// result slice — is bit-identical at any parallelism, including 1. When
// entries fail, the error of the earliest failing id is returned (what
// a sequential loop would have reported first); tables of successful
// entries are still filled in.
func RunAll(ids []string, p Params, parallelism int) ([]*export.Table, error) {
	if len(ids) == 0 {
		ids = IDs()
	}
	for _, id := range ids {
		if _, err := CatalogSpec(id); err != nil {
			return nil, err
		}
	}
	// Split the budget: runner-level fan-out gets `workers` goroutines,
	// and each runner may internally use the remaining width (so
	// `-par 8 e8-dyn` fans its replicas 8-wide, while 13 concurrent
	// runners on 8 cores each run their replicas sequentially).
	workers, inner := splitBudget(parallelism, len(ids), p.Parallelism)
	p.Parallelism = inner

	tables := make([]*export.Table, len(ids))
	errs := make([]error, len(ids))
	forEachIndex(len(ids), workers, func(i int) {
		tables[i], errs[i] = Run(ids[i], p)
	})
	for i, err := range errs {
		if err != nil {
			return tables, fmt.Errorf("%s: %w", ids[i], err)
		}
	}
	return tables, nil
}
