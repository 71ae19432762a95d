package conformance

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"

	"tracerebase/internal/experiments"
	"tracerebase/internal/expstore"
	"tracerebase/internal/resultcache"
	"tracerebase/internal/synth"
)

// CheckExpStoreTransparency is the differential oracle for the columnar
// experiment store: the store must be invisible in the output. It runs the
// same sweep four ways — store-off, cold store (every cell appended, then
// read back), warm store (a fresh Store over the same directory, modelling
// a second process, deduplicating every offered cell), and warm store with
// one block corrupted on disk — and requires byte-identical rendered output
// (and structurally identical results) from all of them. The corrupted
// block must be caught by checksum, discarded with a pointed warning, and
// reported as read-back misses — never served, never a crash — and a
// follow-up sweep must re-append exactly the lost cells. Two lookup passes
// add a result cache beside the store, which makes the store the first
// lookup: over the filled store every cell must be served from it, with
// nothing generated, simulated or re-offered; after a second corrupted
// block exactly the lost cells must fall through to the result cache and
// be recomputed. Finally, the pruned query path over the populated store
// must return the same rows as the brute-force full scan while reading
// fewer bytes.
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

	// Corrupt one block mid-data (the byte just below the footer is always
	// inside the last column's checksummed region) and re-run with a fresh
	// Store. The damage must be caught by checksum, warned about, and the
	// block's cells surface as read-back misses — served from the in-flight
	// results, so the output must not move.
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
	if hurtStats.Corrupt != 1 || misses != lostCells {
		return fmt.Errorf("corrupted-block run: %d corrupt, %d misses, want 1 and %d",
			hurtStats.Corrupt, misses, lostCells)
	}
	if w := warns.String(); !strings.Contains(w, "corrupt block") {
		return fmt.Errorf("corrupted-block run produced no pointed warning (got %q)", w)
	}
	if _, err := os.Stat(victim); !os.IsNotExist(err) {
		return fmt.Errorf("corrupt block %s was not removed", victim)
	}

	// The lost cells reconvert: the next sweep re-appends exactly them.
	repair, err := open(nil)
	if err != nil {
		return err
	}
	misses = 0
	repairOut, _, err := sweep(repair, nil, &misses)
	repairStats := repair.Stats()
	queryErr := checkQueryAgainstFullScan(repair)
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
	if repairStats.CellsWritten != uint64(lostCells) || repairStats.DupSkipped != jobs-uint64(lostCells) {
		return fmt.Errorf("repair sweep: %d cells written, %d dups, want %d and %d",
			repairStats.CellsWritten, repairStats.DupSkipped, lostCells, jobs-uint64(lostCells))
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

// checkQueryAgainstFullScan asserts the block-pruned query path returns
// the same rows as the brute-force full scan over a populated store,
// reading no more bytes.
func checkQueryAgainstFullScan(store *expstore.Store) error {
	for _, src := range []string{
		"group-by=category stat=count,mean,p99",
		"variant=All_imps,No_imp group-by=variant stat=geomean",
		"category=srv metric=l1i_misses stat=sum,max",
	} {
		q, err := expstore.ParseQuery(src)
		if err != nil {
			return err
		}
		pruned, err := store.Query(q)
		if err != nil {
			return fmt.Errorf("query %q: %w", src, err)
		}
		full, err := store.FullScan(q)
		if err != nil {
			return fmt.Errorf("full scan %q: %w", src, err)
		}
		if !reflect.DeepEqual(pruned.Rows, full.Rows) {
			return fmt.Errorf("query %q: pruned rows differ from full scan", src)
		}
		if pruned.Stats.BytesRead > full.Stats.BytesRead {
			return fmt.Errorf("query %q read %d bytes, more than the full scan's %d",
				src, pruned.Stats.BytesRead, full.Stats.BytesRead)
		}
	}
	return nil
}

// corruptOneBlock flips a data byte in one block file under dir and
// returns the victim path and its cell count (read from the header before
// the damage).
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
	cells := int(binary.LittleEndian.Uint64(buf[40:48]))
	footerOff := binary.LittleEndian.Uint64(buf[48:56])
	buf[footerOff-1] ^= 0xff
	return victim, cells, os.WriteFile(victim, buf, 0o644)
}
