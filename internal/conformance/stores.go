package conformance

import (
	"bytes"
	"fmt"
	"io/fs"
	"maps"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"

	"tracerebase/internal/experiments"
	"tracerebase/internal/expstore"
	"tracerebase/internal/resultcache"
	"tracerebase/internal/synth"
	"tracerebase/internal/tracestore"
)

// The store-transparency oracle: every store must be invisible in the
// output. One store-off sweep is the reference. Each row of storeRows then
// sweeps the same traces through one store, over one fresh directory: cold,
// warm (fresh stores over the same directory, modelling a second process)
// and after damaging a file. Every run must render the reference bytes and
// return structurally identical results, and must end with the counters,
// the warning and the damaged file's fate its row expects, so a store that
// serves a damaged file, recomputes what it holds, or claims work it did
// not do fails with the store, the run and the check named.
func storeRows() []storeRow {
	return []storeRow{{
		store: "result cache",
		title: "uncached vs cold vs warm vs corrupted sweeps of %d traces byte-identical",
		runs: []storeRun{
			{name: "cold", open: openDiskCache, want: tallies{"cache.computes": all, "cache.hits": 0}},
			// Everything comes from disk, nothing recomputed.
			{name: "warm", open: openDiskCache, want: tallies{"cache.computes": 0, "cache.disk_hits": all}},
			// The entry is caught by checksum, recomputed and stored again.
			{name: "corrupted", damage: damage{".rc", flipMiddle}, open: openDiskCache,
				want: tallies{"cache.corrupt": 1, "cache.computes": lost, "cache.disk_hits": kept}},
		},
	}, {
		store: "cache tiers",
		title: "off vs cold vs warm-memory vs warm-remote sweeps of %d traces byte-identical",
		runs: []storeRun{
			{name: "cold", open: openTierA, want: tallies{"cache.computes": all, "cache.hits": 0}},
			// A repeat query against a live daemon: the memory tier answers.
			{name: "warm memory", open: openTierA,
				want: tallies{"cache.computes": 0, "cache.disk_hits": all, "memory.hits": all}},
			// Two chained daemons: every cell crosses the wire and is
			// promoted into the new stack's memory tier.
			{name: "warm remote", open: openTierB,
				want: tallies{"cache.computes": 0, "cache.disk_hits": all, "remote.hits": all, "memory.puts": all}},
		},
	}, {
		store: "trace store",
		title: "store-off vs cold vs warm vs corrupted vs truncated sweeps of %d traces byte-identical",
		runs: []storeRun{
			{name: "cold", open: openSlabs, want: tallies{"trace_store.converts": all, "trace_store.hits": 0}},
			// Every slab maps from disk, nothing reconverted.
			{name: "warm", open: openSlabs, want: tallies{"trace_store.converts": 0, "trace_store.disk_hits": all}},
			// A damaged slab is caught by checksum or size, warned about and
			// reconverted into place.
			{name: "corrupted", damage: damage{".slab", flipMiddle}, open: openSlabs, warning: "corrupt slab",
				want: tallies{"trace_store.corrupt": 1, "trace_store.converts": lost, "trace_store.disk_hits": kept}},
			{name: "truncated", damage: damage{".slab", truncateSlab}, open: openSlabs, warning: "corrupt slab",
				want: tallies{"trace_store.corrupt": 1, "trace_store.converts": lost, "trace_store.disk_hits": kept}},
		},
	}, {
		store: "exp store",
		title: "store-off vs cold vs warm vs store-served vs corrupted sweeps of %d traces byte-identical, queries == sweep aggregates",
		runs: []storeRun{
			// Every cell is appended, then read back.
			{name: "cold", open: openExp, want: tallies{"exp_store.appends": all, "exp_store.dup_skipped": 0,
				"exp_store.cells_written": all, "exp_store.readback_misses": 0}},
			// Every offered cell deduplicates against disk.
			{name: "warm", open: openExp, want: tallies{"exp_store.dup_skipped": all,
				"exp_store.blocks_written": 0, "exp_store.readback_misses": 0}},
			// The store serves every cell before dispatch: the result cache
			// beside it is never asked, and nothing is offered back.
			{name: "store-served", open: openExpFirst, want: tallies{"exp_store.lookup_hits": all,
				"exp_store.lookup_misses": 0, "exp_store.readback_misses": 0, "exp_store.appends": 0,
				"exp_store.blocks_written": 0, "cache.hits": 0, "cache.misses": 0, "cache.computes": 0}},
			// The load drops the block before the sweep offers a cell; its
			// cells are appended again and read back.
			{name: "corrupted", damage: damage{".expb", flipBlockRow}, open: openExp, warning: "corrupt block", gone: true,
				want: tallies{"exp_store.corrupt": 1, "exp_store.readback_misses": 0,
					"exp_store.cells_written": lost, "exp_store.dup_skipped": kept}},
			// The lost cells were restored: nothing is written.
			{name: "repair", open: openExp, want: tallies{"exp_store.cells_written": 0,
				"exp_store.dup_skipped": all, "exp_store.readback_misses": 0}},
			// A dropped block's cells miss the store and fall through to the
			// result cache, which recomputes them.
			{name: "relook", damage: damage{".expb", flipBlockRow}, open: openExpFirst, warning: "corrupt block", gone: true,
				want: tallies{"exp_store.corrupt": 1, "exp_store.lookup_hits": kept, "exp_store.lookup_misses": lost,
					"cache.hits": 0, "cache.misses": lost, "cache.computes": lost,
					"exp_store.cells_written": lost, "exp_store.readback_misses": 0}},
		},
	}}
}

// A storeRow is one store under the oracle: its runs, in order, over one
// directory.
type storeRow struct {
	store string // names the store; the -selftest line starts with it
	title string // the rest of the -selftest line, %d taking the trace count
	runs  []storeRun
}

// A storeRun is one sweep of a row.
type storeRun struct {
	name string
	// damage, when set, harms one file of the row's directory first.
	damage damage
	// open opens the run's stores into the rig's sweep configuration.
	open func(g *storeRig) error
	// want holds the counters the run must end with; see track.
	want tallies
	// warning must appear among the stores' warnings; without one the
	// stores must warn of nothing.
	warning string
	// gone says the damaged file must be removed; otherwise it must be
	// back in place.
	gone bool
}

// tallies names each counter a run checks, and its expected value.
type tallies map[string]tally

// A tally is an expected counter value: a number, or all (one per cell of
// the sweep), lost (what the damaged file held) or kept (all but lost).
type tally int64

const (
	all tally = -1 - iota
	lost
	kept
)

func (t tally) value(cells, lostN uint64) uint64 {
	switch t {
	case all:
		return cells
	case lost:
		return lostN
	case kept:
		return cells - lostN
	}
	return uint64(t)
}

// A damage harms the first file, in walk order, with extension ext, and
// returns what it held: one entry or slab, or a block's cells.
type damage struct {
	ext   string
	apply func(path string) (uint64, error)
}

func flipMiddle(path string) (uint64, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	buf[len(buf)/2] ^= 0xff
	return 1, os.WriteFile(path, buf, 0o644)
}

func truncateSlab(path string) (uint64, error) { return 1, os.Truncate(path, 4096+64) }

// flipBlockRow flips the row byte just below the block frame's checksum.
func flipBlockRow(path string) (uint64, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	cells, err := expstore.DecodeBlock(buf)
	if err != nil {
		return 0, fmt.Errorf("%s before the damage: %w", path, err)
	}
	buf[len(buf)-5] ^= 0xff
	return uint64(len(cells)), os.WriteFile(path, buf, 0o644)
}

func pickFile(dir, ext string) (string, error) {
	var found string
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && filepath.Ext(path) == ext {
			found = path
			return filepath.SkipAll
		}
		return err
	})
	if err == nil && found == "" {
		err = fmt.Errorf("no %s file under %s", ext, dir)
	}
	return found, err
}

// storeRef is the store-off reference sweep every run is held to.
type storeRef struct {
	profiles []synth.Profile
	base     experiments.SweepConfig
	cells    uint64
	out      []byte
	res      []experiments.TraceResult
}

func newStoreRef(profiles []synth.Profile, instructions int, warmup uint64) (*storeRef, error) {
	ref := &storeRef{
		profiles: profiles,
		// All ten variants: every (options, rules) pairing is keyed, and
		// every converter-option class gets a slab.
		base:  experiments.SweepConfig{Instructions: instructions, Warmup: warmup, Parallelism: 2},
		cells: uint64(len(profiles) * len(experiments.Variants())),
	}
	var err error
	if ref.out, ref.res, err = ref.sweep(ref.base); err != nil {
		return nil, fmt.Errorf("store-off sweep: %w", err)
	}
	return ref, nil
}

// sweep runs cfg and renders Figs. 1, 4 and 5, which together consume IPC,
// the converter statistics a slab persists, and return-MPKI stats.
func (ref *storeRef) sweep(cfg experiments.SweepConfig) ([]byte, []experiments.TraceResult, error) {
	res, err := experiments.RunSweep(ref.profiles, cfg)
	if err != nil {
		return nil, nil, err
	}
	var buf bytes.Buffer
	experiments.RenderFig1(&buf, experiments.Fig1(res))
	experiments.RenderFig4(&buf, experiments.Fig4(res))
	experiments.RenderFig5(&buf, experiments.Fig5(res))
	return buf.Bytes(), res, nil
}

// storeRig holds a row's directory and what one run opened over it.
type storeRig struct {
	ref *storeRef
	dir string
	// The cache tiers row's first stack lives across its runs, as a
	// daemon's does.
	memA   *resultcache.Memory
	stackA *resultcache.Tiered

	cfg experiments.SweepConfig
	// after reads the run's counters into got, or checks its stores, once
	// the sweep is done.
	after   []func(got map[string]uint64) error
	closers []func() error
	mu      sync.Mutex // guards warned: sweep workers warn concurrently
	warned  strings.Builder
}

func (g *storeRig) warnf(format string, args ...any) {
	g.mu.Lock()
	fmt.Fprintf(&g.warned, format+"\n", args...)
	g.mu.Unlock()
}

// check makes the row's runs over a fresh directory, stopping at the first
// run that fails.
func (row storeRow) check(ref *storeRef) error {
	dir, err := os.MkdirTemp("", "tracerebase-storecheck-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	g := &storeRig{ref: ref, dir: dir}
	defer func() {
		if g.stackA != nil {
			g.stackA.Close()
		}
	}()
	for _, run := range row.runs {
		if errs := g.sweep(run); len(errs) > 0 {
			return fmt.Errorf("%s, %s run: %s", row.store, run.name, strings.Join(errs, "; "))
		}
	}
	return nil
}

// sweep damages, opens, sweeps and closes one run, and lists every check
// it fails.
func (g *storeRig) sweep(run storeRun) []string {
	var victim string
	var lostN uint64
	if run.damage.ext != "" {
		var err error
		if victim, err = pickFile(g.dir, run.damage.ext); err == nil {
			lostN, err = run.damage.apply(victim)
		}
		if err != nil {
			return []string{fmt.Sprintf("damage: %v", err)}
		}
	}
	g.cfg, g.after, g.closers = g.ref.base, nil, nil
	g.warned.Reset()
	errs := g.collect(run, lostN)
	for _, c := range slices.Backward(g.closers) {
		if err := c(); err != nil {
			errs = append(errs, fmt.Sprintf("close: %v", err))
		}
	}
	if w := g.warned.String(); run.warning == "" && w != "" {
		errs = append(errs, fmt.Sprintf("unexpected warnings %q", w))
	} else if !strings.Contains(w, run.warning) {
		errs = append(errs, fmt.Sprintf("no pointed warning %q (got %q)", run.warning, w))
	}
	if victim != "" {
		if _, err := os.Stat(victim); run.gone && !os.IsNotExist(err) {
			errs = append(errs, fmt.Sprintf("damaged file %s was not removed", victim))
		} else if !run.gone && err != nil {
			errs = append(errs, fmt.Sprintf("damaged file was not rewritten: %v", err))
		}
	}
	return errs
}

// collect opens the run's stores and sweeps, then checks the output, the
// results, the stores and every counter the run expects.
func (g *storeRig) collect(run storeRun, lostN uint64) []string {
	if err := run.open(g); err != nil {
		return []string{fmt.Sprintf("open: %v", err)}
	}
	out, res, err := g.ref.sweep(g.cfg)
	if err != nil {
		return []string{fmt.Sprintf("sweep: %v", err)}
	}
	var errs []string
	if !bytes.Equal(out, g.ref.out) {
		errs = append(errs, "output differs from the store-off output")
	}
	if !reflect.DeepEqual(res, g.ref.res) {
		errs = append(errs, "results differ structurally from the store-off results")
	}
	got := make(map[string]uint64)
	for _, f := range g.after {
		if err := f(got); err != nil {
			errs = append(errs, err.Error())
		}
	}
	for _, name := range slices.Sorted(maps.Keys(run.want)) {
		v, ok := got[name]
		if w := run.want[name].value(g.ref.cells, lostN); !ok {
			errs = append(errs, fmt.Sprintf("no counter %s", name))
		} else if v != w {
			errs = append(errs, fmt.Sprintf("%s = %d, want %d", name, v, w))
		}
	}
	return errs
}

// track counts what the run adds to stats' counters, each named prefix.json
// after the name -bench-json records.
func track[S any](g *storeRig, prefix string, stats func() S) {
	before := flatten(prefix, stats())
	g.after = append(g.after, func(got map[string]uint64) error {
		for name, v := range flatten(prefix, stats()) {
			got[name] = v - before[name]
		}
		return nil
	})
}

func flatten(prefix string, stats any) map[string]uint64 {
	v := reflect.ValueOf(stats)
	m := make(map[string]uint64)
	for i := range v.NumField() {
		f := v.Type().Field(i)
		if name, _, _ := strings.Cut(f.Tag.Get("json"), ","); name != "" && f.Type.Kind() == reflect.Uint64 {
			m[prefix+"."+name] = v.Field(i).Uint()
		}
	}
	return m
}

func openDiskCache(g *storeRig) error {
	c, err := experiments.OpenResultCache(g.dir, 0)
	if err != nil {
		return err
	}
	g.cfg.Cache = c
	g.closers = append(g.closers, c.Close)
	track(g, "cache", c.Stats)
	return nil
}

// openTierA opens a fresh result cache over stack A, memory in front of
// disk, built by the row's first run.
func openTierA(g *storeRig) error {
	if g.stackA == nil {
		disk, err := resultcache.NewDisk(resultcache.DiskConfig{Dir: filepath.Join(g.dir, "a")})
		if err != nil {
			return err
		}
		g.memA = resultcache.NewMemory(0)
		g.stackA = resultcache.NewTiered(g.memA, disk)
	}
	g.cfg.Cache = experiments.NewResultCache(g.stackA)
	track(g, "cache", g.cfg.Cache.Stats)
	track(g, "memory", g.memA.Stat)
	return nil
}

// openTierB serves stack A over the HTTP wire protocol as the slowest tier
// of a new stack B: memory, disk, remote.
func openTierB(g *storeRig) error {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	hs := &http.Server{Handler: resultcache.NewHTTPHandler(g.stackA)}
	go hs.Serve(l)
	g.closers = append(g.closers, hs.Close)
	remote, err := resultcache.NewRemote(resultcache.RemoteConfig{BaseURL: "http://" + l.Addr().String(), Retries: -1})
	if err != nil {
		return err
	}
	disk, err := resultcache.NewDisk(resultcache.DiskConfig{Dir: filepath.Join(g.dir, "b")})
	if err != nil {
		return err
	}
	mem := resultcache.NewMemory(0)
	g.cfg.Cache = experiments.NewResultCache(resultcache.NewTiered(mem, disk, remote))
	g.closers = append(g.closers, g.cfg.Cache.Close)
	track(g, "cache", g.cfg.Cache.Stats)
	track(g, "memory", mem.Stat)
	track(g, "remote", remote.Stat)
	return nil
}

func openSlabs(g *storeRig) error {
	s, err := tracestore.Open(tracestore.Config{Dir: g.dir, Warn: g.warnf})
	if err != nil {
		return err
	}
	g.cfg.Slabs = s
	track(g, "trace_store", s.Stats)
	return nil
}

// openExp opens the experiment store. It counts the cells the read-back
// could not serve as exp_store.readback_misses, and queries over the store
// must agree with the reference results.
func openExp(g *storeRig) error {
	// Small blocks, so the sweep spans several and one can be damaged
	// without losing everything.
	s, err := expstore.Open(expstore.Config{Dir: g.dir, BlockCells: 4, Warn: g.warnf})
	if err != nil {
		return err
	}
	misses := uint64(0)
	g.cfg.Exp = s
	g.cfg.ExpMisses = func(n int) { misses += uint64(n) }
	g.closers = append(g.closers, s.Close)
	track(g, "exp_store", s.Stats)
	g.after = append(g.after, func(got map[string]uint64) error {
		got["exp_store.readback_misses"] = misses
		return checkQueryAgainstSweep(s, g.ref.res)
	})
	return nil
}

// openExpFirst adds an empty memory result cache beside the experiment
// store, which makes the store the first lookup.
func openExpFirst(g *storeRig) error {
	if err := openExp(g); err != nil {
		return err
	}
	g.cfg.Cache = experiments.NewResultCache(resultcache.NewMemory(0))
	g.closers = append(g.closers, g.cfg.Cache.Close)
	track(g, "cache", g.cfg.Cache.Stats)
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
