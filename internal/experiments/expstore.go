package experiments

import (
	"fmt"

	"tracerebase/internal/expstore"
	"tracerebase/internal/resultcache"
	"tracerebase/internal/sim"
	"tracerebase/internal/synth"
)

// The experiment store records every cell a sweep computes (or serves from
// the result cache) as one row of the expstore, keyed by the same
// content address the result cache uses, and is the first place a cached
// cell is served from (see execute). Appends are advisory: a store write
// failure degrades to a warning — the sweep result is unaffected — and
// duplicate keys are dropped by the store itself, so re-runs do not grow
// it.

// DefaultExpStoreDir resolves the experiment-store root relative to the
// cache root: <cache>/exp.
func DefaultExpStoreDir() (string, error) {
	dir, err := DefaultCacheDir()
	if err != nil {
		return "", err
	}
	return dir + "/exp", nil
}

// storeCell assembles the expstore row for one (trace, variant) cell. The
// identity columns come from the same simulator configuration the dispatch
// path used, so queries group by exactly what ran.
func storeCell(p *synth.Profile, variant string, simCfg sim.Config, instructions int, warmup uint64, key resultcache.Key, res Result) expstore.Cell {
	return expstore.Cell{
		Trace:        p.Name,
		Category:     string(p.Category),
		Variant:      variant,
		Config:       simCfg.Name,
		Prefetcher:   simCfg.L1IPrefetcher,
		ROB:          uint64(simCfg.ROBSize),
		Cores:        1,
		SamplePeriod: simCfg.SamplePeriod,
		Instructions: uint64(instructions),
		Warmup:       warmup,
		Build:        resultcache.Fingerprint(),
		Key:          key,
		IPC:          res.IPC,
		Sim:          res.Sim,
		Conv:         res.Conv,
	}
}

// recordCell appends one cell to the sweep's experiment store, if any.
// Failures warn through the store and never fail the sweep.
func (c *SweepConfig) recordCell(p *synth.Profile, variant string, simCfg sim.Config, key resultcache.Key, res Result) {
	if c.Exp == nil {
		return
	}
	// Append errors are already counted and warned by the store.
	_ = c.Exp.Append(storeCell(p, variant, simCfg, c.Instructions, c.Warmup, key, res))
}

// CellKey returns the content address of one (trace, variant) cell as this
// configuration would dispatch it — the handle the report layer uses to
// read sweep results back out of the experiment store.
func (c SweepConfig) CellKey(p synth.Profile, v Variant) (resultcache.Key, error) {
	if err := c.fill(); err != nil {
		return resultcache.Key{}, err
	}
	return cacheKey(&p, v.Opts, c.simConfigFor(v.Opts), c.Instructions, c.Warmup), nil
}

// cellResult is the Result a stored cell carries.
func cellResult(cell expstore.Cell) Result {
	return Result{IPC: cell.IPC, Sim: cell.Sim, Conv: cell.Conv}
}

// storeReadBack swaps the in-memory sweep results for their store-read
// copies: after a sweep has appended (or deduped against) every cell, the
// cells are fetched back by content key and replace the engine's own
// values, making the figure pipeline the store's first consumer. Cells the
// lookup phase served from the store already are store copies and are
// skipped. Cells the store cannot produce (a failed block write) fall back
// to the in-memory result with a warning; the returned count is the number
// of such misses, which the store-transparency oracle pins to zero.
func storeReadBack(exp *expstore.Store, out []TraceResult, ex *executed) (int, error) {
	keys := make([]expstore.Key, 0, len(ex.cells))
	slots := make(map[expstore.Key][]int)
	for i, key := range ex.keys {
		if ex.errs[i] != nil || ex.stored[i] {
			continue // a failed cell appended nothing; a stored one is a store copy
		}
		if _, seen := slots[key]; !seen {
			keys = append(keys, key)
		}
		slots[key] = append(slots[key], i)
	}
	cells, err := exp.Cells(keys)
	if err != nil {
		return len(keys), fmt.Errorf("experiments: expstore read-back: %w", err)
	}
	misses := 0
	for key, is := range slots {
		cell, ok := cells[key]
		if !ok {
			misses++
			continue
		}
		res := cellResult(cell)
		for _, i := range is {
			cl := ex.cells[i]
			out[cl.trace].Results[cl.variant] = res
		}
	}
	return misses, nil
}
