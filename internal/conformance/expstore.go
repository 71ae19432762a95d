package conformance

import (
	"bytes"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"

	"tracerebase/internal/experiments"
	"tracerebase/internal/expstore"
	"tracerebase/internal/resultcache"
	"tracerebase/internal/synth"
)

// CheckExpStoreTransparency is the differential oracle for the experiment
// store: the store must be invisible in the output. It runs the
// same sweep four ways — store-off, cold store (every cell appended, then
// read back), warm store (a fresh Store over the same directory, modelling
// a second process, deduplicating every offered cell), and warm store with
// one block corrupted on disk — and requires byte-identical rendered output
// (and structurally identical results) from all of them. The corrupted
// block must be caught by checksum when the store loads, before the sweep
// offers a cell, and discarded with a pointed warning — never served,
// never a crash; the sweep then re-appends exactly the lost cells and
// reads every cell back, and a follow-up sweep writes nothing. Two lookup passes
// add a result cache beside the store, which makes the store the first
// lookup: over the filled store every cell must be served from it, with
// nothing generated, simulated or re-offered; after a second corrupted
// block exactly the lost cells must fall through to the result cache and
// be recomputed. Finally, queries over the populated store must agree with
// the sweep's in-memory results: stat=count with the cell count, and the
// per-variant IPC mean and max with the same aggregates computed directly.
func CheckExpStoreTransparency(profiles []synth.Profile, instructions int, warmup uint64) error {
	dir, err := os.MkdirTemp("", "tracerebase-expcheck-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	baseCfg := experiments.SweepConfig{
		Instructions: instructions,
		Warmup:       warmup,
		Parallelism:  2,
		Variants:     nil, // all ten: one cell per (trace, variant)
	}
	render := func(res []experiments.TraceResult) []byte {
		var buf bytes.Buffer
		experiments.RenderFig1(&buf, experiments.Fig1(res))
		experiments.RenderFig4(&buf, experiments.Fig4(res))
		experiments.RenderFig5(&buf, experiments.Fig5(res))
		return buf.Bytes()
	}
	sweep := func(store *expstore.Store, cache *experiments.ResultCache, misses *int) ([]byte, []experiments.TraceResult, error) {
		cfg := baseCfg
		cfg.Exp, cfg.Cache = store, cache
		if misses != nil {
			cfg.ExpMisses = func(n int) { *misses += n }
		}
		res, err := experiments.RunSweep(profiles, cfg)
		if err != nil {
			return nil, nil, err
		}
		return render(res), res, nil
	}
	open := func(warn func(string, ...any)) (*expstore.Store, error) {
		// Small blocks so the sweep spans several and one can be damaged
		// without losing everything.
		return expstore.Open(expstore.Config{Dir: dir, BlockCells: 4, Warn: warn})
	}

	want, wantRes, err := sweep(nil, nil, nil)
	if err != nil {
		return fmt.Errorf("store-off sweep: %w", err)
	}

	jobs := uint64(len(profiles) * len(experiments.Variants()))
	cold, err := open(nil)
	if err != nil {
		return err
	}
	misses := 0
	coldOut, coldRes, err := sweep(cold, nil, &misses)
	coldStats := cold.Stats()
	cold.Close()
	if err != nil {
		return fmt.Errorf("cold-store sweep: %w", err)
	}
	if !bytes.Equal(coldOut, want) {
		return fmt.Errorf("cold-store sweep output differs from store-off output")
	}
	if !reflect.DeepEqual(coldRes, wantRes) {
		return fmt.Errorf("cold-store sweep results differ structurally from store-off results")
	}
	if misses != 0 {
		return fmt.Errorf("cold store missed %d cells on read-back, want 0", misses)
	}
	if coldStats.Appends != jobs || coldStats.DupSkipped != 0 || coldStats.CellsWritten != jobs {
		return fmt.Errorf("cold store: %d appends, %d dups, %d cells written, want %d, 0, %d",
			coldStats.Appends, coldStats.DupSkipped, coldStats.CellsWritten, jobs, jobs)
	}

	// A fresh Store over the same directory stands in for a second process:
	// every offered cell deduplicates against disk, nothing is rewritten.
	warm, err := open(nil)
	if err != nil {
		return err
	}
	misses = 0
	warmOut, warmRes, err := sweep(warm, nil, &misses)
	warmStats := warm.Stats()
	warm.Close()
	if err != nil {
		return fmt.Errorf("warm-store sweep: %w", err)
	}
	if !bytes.Equal(warmOut, want) {
		return fmt.Errorf("warm-store sweep output differs from store-off output")
	}
	if !reflect.DeepEqual(warmRes, wantRes) {
		return fmt.Errorf("warm-store sweep results differ structurally from store-off results")
	}
	if misses != 0 {
		return fmt.Errorf("warm store missed %d cells on read-back, want 0", misses)
	}
	if warmStats.DupSkipped != jobs || warmStats.BlocksWritten != 0 {
		return fmt.Errorf("warm store: %d dups, %d blocks written, want %d and 0",
			warmStats.DupSkipped, warmStats.BlocksWritten, jobs)
	}

	// With a result cache beside it, the filled store serves every cell
	// before dispatch: the cache is never asked, so no cell is generated or
	// simulated, and no cell is offered back to the store.
	lookup, err := open(nil)
	if err != nil {
		return err
	}
	cache := experiments.NewResultCache(resultcache.NewMemory(0))
	misses = 0
	lookupOut, lookupRes, err := sweep(lookup, cache, &misses)
	lookupStats, cacheStats := lookup.Stats(), cache.Stats()
	lookup.Close()
	cache.Close()
	if err != nil {
		return fmt.Errorf("lookup sweep: %w", err)
	}
	if !bytes.Equal(lookupOut, want) {
		return fmt.Errorf("store-served sweep output differs from store-off output")
	}
	if !reflect.DeepEqual(lookupRes, wantRes) {
		return fmt.Errorf("store-served sweep results differ structurally from store-off results")
	}
	if lookupStats.LookupHits != jobs || lookupStats.LookupMisses != 0 || misses != 0 {
		return fmt.Errorf("lookup sweep: %d lookup hits, %d lookup misses, %d read-back misses, want %d, 0, 0",
			lookupStats.LookupHits, lookupStats.LookupMisses, misses, jobs)
	}
	if lookupStats.Appends != 0 || lookupStats.BlocksWritten != 0 {
		return fmt.Errorf("lookup sweep: %d cells offered, %d blocks written, want 0 and 0",
			lookupStats.Appends, lookupStats.BlocksWritten)
	}
	if cacheStats.Hits != 0 || cacheStats.Misses != 0 || cacheStats.Computes != 0 {
		return fmt.Errorf("lookup sweep: result cache saw %d hits, %d misses, %d computes, want none",
			cacheStats.Hits, cacheStats.Misses, cacheStats.Computes)
	}

	// Corrupt one block's rows (the byte just below the frame's checksum)
	// and re-run with a fresh Store. The load catches the damage by
	// checksum and warns; the block's cells are offered again, re-appended
	// and read back, so the output must not move.
	victim, lostCells, err := corruptOneBlock(dir)
	if err != nil {
		return err
	}
	var warns warnLog
	hurt, err := open(warns.warnf)
	if err != nil {
		return err
	}
	misses = 0
	hurtOut, _, err := sweep(hurt, nil, &misses)
	hurtStats := hurt.Stats()
	hurt.Close()
	if err != nil {
		return fmt.Errorf("sweep over corrupted block: %w", err)
	}
	if !bytes.Equal(hurtOut, want) {
		return fmt.Errorf("corrupted block leaked into the output")
	}
	if hurtStats.Corrupt != 1 || misses != 0 || hurtStats.CellsWritten != uint64(lostCells) ||
		hurtStats.DupSkipped != jobs-uint64(lostCells) {
		return fmt.Errorf("corrupted-block run: %d corrupt, %d misses, %d cells written, %d dups, want 1, 0, %d and %d",
			hurtStats.Corrupt, misses, hurtStats.CellsWritten, hurtStats.DupSkipped, lostCells, jobs-uint64(lostCells))
	}
	if w := warns.String(); !strings.Contains(w, "corrupt block") {
		return fmt.Errorf("corrupted-block run produced no pointed warning (got %q)", w)
	}
	if _, err := os.Stat(victim); !os.IsNotExist(err) {
		return fmt.Errorf("corrupt block %s was not removed", victim)
	}

	// The lost cells were restored: the next sweep writes nothing.
	repair, err := open(nil)
	if err != nil {
		return err
	}
	misses = 0
	repairOut, _, err := sweep(repair, nil, &misses)
	repairStats := repair.Stats()
	queryErr := checkQueryAgainstSweep(repair, wantRes)
	repair.Close()
	if err != nil {
		return fmt.Errorf("repair sweep: %w", err)
	}
	if !bytes.Equal(repairOut, want) {
		return fmt.Errorf("repair sweep output differs from store-off output")
	}
	if misses != 0 {
		return fmt.Errorf("repair sweep missed %d cells on read-back, want 0", misses)
	}
	if repairStats.CellsWritten != 0 || repairStats.DupSkipped != jobs {
		return fmt.Errorf("repair sweep: %d cells written, %d dups, want 0 and %d",
			repairStats.CellsWritten, repairStats.DupSkipped, jobs)
	}
	if queryErr != nil {
		return queryErr
	}

	// Corrupt another block and look cells up again: the lookup drops the
	// block, its cells miss the store and fall through to the result cache
	// (empty, so they are recomputed), and they are appended again and read
	// back, with the output unchanged.
	_, lostCells, err = corruptOneBlock(dir)
	if err != nil {
		return err
	}
	var relookWarns warnLog
	relook, err := open(relookWarns.warnf)
	if err != nil {
		return err
	}
	cache = experiments.NewResultCache(resultcache.NewMemory(0))
	misses = 0
	relookOut, _, err := sweep(relook, cache, &misses)
	relookStats, cacheStats := relook.Stats(), cache.Stats()
	relook.Close()
	cache.Close()
	if err != nil {
		return fmt.Errorf("lookup sweep over corrupted block: %w", err)
	}
	if !bytes.Equal(relookOut, want) {
		return fmt.Errorf("lookup sweep over corrupted block: output differs from store-off output")
	}
	lost := uint64(lostCells)
	if relookStats.Corrupt != 1 || relookStats.LookupHits != jobs-lost || relookStats.LookupMisses != lost {
		return fmt.Errorf("lookup sweep over corrupted block: %d corrupt, %d lookup hits, %d lookup misses, want 1, %d, %d",
			relookStats.Corrupt, relookStats.LookupHits, relookStats.LookupMisses, jobs-lost, lost)
	}
	if cacheStats.Misses != lost || cacheStats.Computes != lost || cacheStats.Hits != 0 {
		return fmt.Errorf("lookup sweep over corrupted block: result cache saw %d hits, %d misses, %d computes, want 0, %d, %d",
			cacheStats.Hits, cacheStats.Misses, cacheStats.Computes, lost, lost)
	}
	if relookStats.CellsWritten != lost || misses != 0 {
		return fmt.Errorf("lookup sweep over corrupted block: %d cells written, %d read-back misses, want %d and 0",
			relookStats.CellsWritten, misses, lost)
	}
	if w := relookWarns.String(); !strings.Contains(w, "corrupt block") {
		return fmt.Errorf("lookup sweep over corrupted block produced no pointed warning (got %q)", w)
	}
	return nil
}

// checkQueryAgainstSweep asserts that queries over a store populated by
// one sweep agree with that sweep's in-memory results: stat=count counts
// every cell, and group-by=variant metric=ipc stat=mean,max gives, per
// variant, the mean and max of the IPCs computed directly, bit for bit.
func checkQueryAgainstSweep(store *expstore.Store, res []experiments.TraceResult) error {
	query := func(src string) (*expstore.Result, error) {
		q, err := expstore.ParseQuery(src)
		if err != nil {
			return nil, err
		}
		r, err := store.Query(q)
		if err != nil {
			return nil, fmt.Errorf("query %q: %w", src, err)
		}
		return r, nil
	}
	ipcs := make(map[string][]float64)
	cells := 0
	for _, tr := range res {
		for name, r := range tr.Results {
			ipcs[name] = append(ipcs[name], r.IPC)
			cells++
		}
	}
	count, err := query("stat=count")
	if err != nil {
		return err
	}
	if len(count.Rows) != 1 || count.Rows[0].Count != cells {
		return fmt.Errorf("query stat=count: rows %+v, want one row counting the sweep's %d cells", count.Rows, cells)
	}
	byVariant, err := query("group-by=variant metric=ipc stat=mean,max")
	if err != nil {
		return err
	}
	var want []expstore.Row
	for _, name := range slices.Sorted(maps.Keys(ipcs)) {
		vals := ipcs[name]
		slices.Sort(vals)
		sum := 0.0
		for _, v := range vals {
			sum += v
		}
		want = append(want, expstore.Row{Group: []string{name}, Count: len(vals),
			Values: []float64{sum / float64(len(vals)), vals[len(vals)-1]}})
	}
	if !reflect.DeepEqual(byVariant.Rows, want) {
		return fmt.Errorf("query group-by=variant metric=ipc stat=mean,max: rows %+v, want %+v from the sweep", byVariant.Rows, want)
	}
	return nil
}

// corruptOneBlock flips a row byte in one block file under dir and returns
// the victim path and its cell count (decoded before the damage).
func corruptOneBlock(dir string) (string, int, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "*.expb"))
	if err != nil {
		return "", 0, err
	}
	if len(matches) == 0 {
		return "", 0, fmt.Errorf("no block files found under %s", dir)
	}
	victim := matches[0]
	buf, err := os.ReadFile(victim)
	if err != nil {
		return "", 0, err
	}
	cells, err := expstore.DecodeBlock(buf)
	if err != nil {
		return "", 0, fmt.Errorf("%s before the damage: %w", victim, err)
	}
	buf[len(buf)-5] ^= 0xff
	return victim, len(cells), os.WriteFile(victim, buf, 0o644)
}
