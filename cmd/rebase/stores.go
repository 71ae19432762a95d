package main

import (
	"fmt"
	"io"
	"os"

	"tracerebase/internal/experiments"
	"tracerebase/internal/expstore"
	"tracerebase/internal/resultcache"
)

// storeConfig places the compiled-trace slab store and the experiment
// store. An empty slabDir or expDir means <cache root>/slabs or
// <cache root>/exp; an empty cacheDir means experiments.DefaultCacheDir.
type storeConfig struct {
	cacheDir        string
	slabDir, expDir string
	noSlabs, noExp  bool
}

// openStores opens the slab store and the experiment store into cfg.Slabs
// and cfg.Exp, for both the batch CLI and `rebase serve`. A store that fails
// to open is reported to log and left nil: a broken store never blocks a
// run, which then converts traces itself or keeps its cells in flight. The
// returned func closes whatever opened.
func openStores(cfg *experiments.SweepConfig, sc storeConfig, log io.Writer) (closeStores func()) {
	warn := func(format string, args ...any) {
		fmt.Fprintf(log, "rebase: "+format+"\n", args...)
	}
	dir := func(override, sub string) (string, error) {
		if override != "" {
			return override, nil
		}
		root := sc.cacheDir
		if root == "" {
			var err error
			if root, err = experiments.DefaultCacheDir(); err != nil {
				return "", err
			}
		}
		return root + "/" + sub, nil
	}
	var (
		slabs *experiments.SlabStore
		exp   *expstore.Store
	)
	if !sc.noSlabs {
		d, err := dir(sc.slabDir, "slabs")
		if err == nil {
			slabs, err = experiments.OpenSlabStore(d, 0, warn)
		}
		if err != nil {
			warn("trace store disabled: %v", err)
		}
	}
	if !sc.noExp {
		d, err := dir(sc.expDir, "exp")
		if err == nil {
			exp, err = expstore.Open(expstore.Config{Dir: d, Warn: warn})
		}
		if err != nil {
			warn("experiment store disabled: %v", err)
		}
	}
	cfg.Slabs, cfg.Exp = slabs, exp
	return func() {
		if exp != nil {
			exp.Close()
		}
		if slabs != nil {
			slabs.Close()
		}
	}
}

// printStoreStats prints the trailer's line for each store cfg holds.
// CI and the workflow tests grep these lines, so their text is fixed.
// expMisses counts cells the run could not read back from the
// experiment store.
func printStoreStats(cfg experiments.SweepConfig, expMisses int) {
	cache := func(s resultcache.Stats, dir string) {
		fmt.Fprintf(os.Stderr, "cache: %d hits (%d mem, %d disk), %d misses, %d corrupt, %d evicted, %.1f MB read, %.1f MB written (%s)\n",
			s.Hits, s.MemHits, s.DiskHits, s.Misses, s.Corrupt, s.Evictions,
			float64(s.BytesRead)/1e6, float64(s.BytesWritten)/1e6, dir)
	}
	if cfg.Cache != nil {
		cache(cfg.Cache.Stats(), cfg.Cache.Dir())
	}
	if cfg.MultiCache != nil {
		cache(cfg.MultiCache.Stats(), cfg.MultiCache.Dir())
	}
	if cfg.Slabs != nil {
		s := cfg.Slabs.Stats()
		fmt.Fprintf(os.Stderr, "slabs: %d hits (%d mem, %d disk), %d misses, %d converted, %.1f MB peak mapped, %d corrupt, %.1f MB mapped, %.1f MB written (%s)\n",
			s.Hits, s.MemHits, s.DiskHits, s.Misses, s.Converts, float64(s.PeakMappedBytes)/1e6, s.Corrupt,
			float64(s.BytesMapped)/1e6, float64(s.BytesWritten)/1e6, cfg.Slabs.Dir())
	}
	if cfg.Exp != nil {
		s := cfg.Exp.Stats()
		fmt.Fprintf(os.Stderr, "exp-store: %d lookup hits, %d lookup misses, %d cells appended (%d dup), %d read-back misses, %d blocks written, %d compactions, %d corrupt, %.1f MB written (%s)\n",
			s.LookupHits, s.LookupMisses, s.Appends, s.DupSkipped, expMisses, s.BlocksWritten, s.Compactions, s.Corrupt,
			float64(s.BytesWritten)/1e6, cfg.Exp.Dir())
	}
}
