package experiments

import (
	"cmp"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"tracerebase/internal/champtrace"
	"tracerebase/internal/core"
	"tracerebase/internal/cvp"
	"tracerebase/internal/resultcache"
	"tracerebase/internal/sim"
	"tracerebase/internal/synth"
	"tracerebase/internal/tracestore"
)

// The cell executor is the one path from a list of experiment cells to
// their Results; the figure sweep (and so Table 2), Table 3 and the
// front-end ablation all build cells and hand them to execute. It is
// result-first: every cell's content address is derived once, every cell
// is resolved against the experiment store and then the result cache
// before any input work, and only the misses go on to generation,
// conversion (or a slab), and simulation. A fully warm run therefore
// reads one batch of store blocks and touches neither the result cache's
// files, the generator, nor the slab store.

// generateBatch synthesizes a trace's instructions. It is a variable so
// tests can count generator calls.
var generateBatch = synth.Profile.GenerateBatch

// cell is one unit of experiment work: one trace, converted under one
// improvement set, simulated under one configuration.
type cell struct {
	// trace indexes the profiles the cell list was built over.
	trace  int
	opts   core.Options
	simCfg sim.Config
	// variant is the cell's label in the experiment store.
	variant string
}

// executed is the outcome of one execute call, indexed like its cells.
type executed struct {
	cells []cell
	// keys are the cells' content addresses; zero when the run has
	// neither a result cache nor an experiment store.
	keys    []resultcache.Key
	results []Result
	// stored marks the cells the experiment store served in the lookup
	// phase: their results already are store copies.
	stored []bool
	// errs holds each failed cell's error. A trace whose generation
	// failed has it in genErrs, and its missed cells carry copies.
	errs    []error
	genErrs []error
}

// failures lists the run's errors in cell order, reporting a failed trace
// generation once instead of once per cell.
func (ex *executed) failures() []error {
	var errs []error
	reported := make([]bool, len(ex.genErrs))
	for i, cl := range ex.cells {
		switch {
		case ex.genErrs[cl.trace] != nil:
			if !reported[cl.trace] {
				reported[cl.trace] = true
				errs = append(errs, ex.genErrs[cl.trace])
			}
		case ex.errs[i] != nil:
			errs = append(errs, ex.errs[i])
		}
	}
	return errs
}

// err joins the run's failures.
func (ex *executed) err() error { return errors.Join(ex.failures()...) }

// traceInput is a trace's input: its generated instructions, produced at
// most once, by the first missed cell that needs them (generate), and
// dropped as soon as no class of the trace can read them again. With a
// slab store the trace's slabs come from one streamed pass, and only a
// slab the pass could not leave in the store is written from them. A
// co-schedule's workloads are traces too (RunMultiSweep).
type traceInput struct {
	once   sync.Once
	instrs []cvp.Instruction
	err    error
	// users counts the trace's classes that may still read instrs.
	users atomic.Int32
	// left counts the trace's cells still to finish, for Progress.
	left atomic.Int32
	// opts holds the converter options of the trace's classes with a
	// missed cell. With a slab store, the first of them to acquire its
	// records runs pass, which converts their missing slabs
	// (convertTrace); passErr is its generation error.
	opts    []core.Options
	pass    sync.Once
	passErr error
}

// generate returns the trace's n instructions of p, generating them on
// the first call.
func (tr *traceInput) generate(p *synth.Profile, n int) ([]cvp.Instruction, error) {
	tr.once.Do(func() { tr.instrs, tr.err = generateBatch(*p, n) })
	return tr.instrs, tr.err
}

// genErr returns the trace's generation error, from its slab pass or its
// whole generation, once the input that hit it has returned.
func (tr *traceInput) genErr() error { return cmp.Or(tr.passErr, tr.err) }

// unuse gives up one class's claim on the instructions; the last claim
// drops them. A slab or in-memory class gives its claim up once it has
// its records, and a streaming class when its cell finishes.
func (tr *traceInput) unuse() {
	if tr.users.Add(-1) == 0 {
		tr.instrs = nil
	}
}

// classInput is the converted input of one (trace, converter-options)
// class: acquired by the first missed cell of the class to run, shared
// read-only by the rest, and released when the last one finishes — so a
// slab stays mapped only while its class has cells running.
type classInput struct {
	trace int
	tr    *traceInput
	opts  core.Options
	// cells counts the class's missed cells; left counts those still
	// running.
	cells int
	once  sync.Once
	slab  *tracestore.Slab
	recs  []champtrace.Instruction
	conv  core.Stats
	err   error
	left  atomic.Int32
}

// release drops the class's records once its last cell has finished. A
// class whose initializer never ran — a lone streaming cell, or cells all
// served by another caller's computation — gives up its claim on the
// trace's instructions here. The once.Do is load-bearing either way:
// without it a cell served by another caller's computation would read the
// slab unsynchronized with the goroutine that acquired it.
func (in *classInput) release() {
	if in.left.Add(-1) != 0 {
		return
	}
	in.once.Do(in.tr.unuse)
	if in.slab != nil {
		in.slab.Release()
		in.slab = nil
	}
	in.recs = nil
}

// converterClasses groups the cells at idx into (trace, converter-option)
// equivalence classes: cells of one trace with identical option bits read
// identical converted records. classOf maps a cell index to its class;
// each class counts its cells in cells and, for release, in left. Classes
// are numbered in order of first appearance.
func converterClasses(cells []cell, idx []int) (classOf map[int]int, classes []*classInput) {
	type id struct {
		trace int
		bits  uint8
	}
	classOf = make(map[int]int, len(idx))
	byID := make(map[id]int)
	for _, i := range idx {
		k := id{cells[i].trace, cells[i].opts.Bits()}
		ci, ok := byID[k]
		if !ok {
			ci = len(classes)
			byID[k] = ci
			classes = append(classes, &classInput{trace: cells[i].trace, opts: cells[i].opts})
		}
		classes[ci].cells++
		classes[ci].left.Add(1)
		classOf[i] = ci
	}
	return classOf, classes
}

// cellKeys derives every cell's content address with one profile hash per
// trace and one configuration hash per distinct configuration: rendering a
// configuration's identity is the expensive part of a key.
func (c *SweepConfig) cellKeys(profiles []synth.Profile, cells []cell) []resultcache.Key {
	keys := make([]resultcache.Key, len(cells))
	profileHashes := make(map[int]resultcache.Key)
	configHashes := make(map[sim.Config]resultcache.Key)
	for i, cl := range cells {
		ph, ok := profileHashes[cl.trace]
		if !ok {
			ph = profileHash(&profiles[cl.trace])
			profileHashes[cl.trace] = ph
		}
		ch, ok := configHashes[cl.simCfg]
		if !ok {
			ch = configHash(cl.simCfg)
			configHashes[cl.simCfg] = ch
		}
		keys[i] = resultKey(ph, optionsHash(cl.opts), ch, c.Instructions, c.Warmup)
	}
	return keys
}

// forEach calls fn(i) for every i in [0, n) on at most par goroutines,
// handing out indices in increasing order.
func forEach(n, par int, fn func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < min(par, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// execute runs cells over profiles on the configured worker pool and
// returns their Results. Cells should come in trace-major order: misses
// run in cell order, so a trace's classes acquire their records together
// and at most about Parallelism traces are generated or converted at a
// time. Where a trace's instructions are generated whole — without a slab
// store, or in the slab path's fallback — they are dropped once its last
// class that reads them has its records, or its last streaming cell
// finishes.
//
// The run has two phases. First every cell is looked up: in the
// experiment store with one batched read, then the store's misses in the
// result cache. Store hits are final (already recorded, never re-offered);
// result-cache hits are recorded and done. Lookups happen only when the
// caller asked for cached results (Cache != nil), so -no-cache runs
// recompute every cell. Then only the misses run: a
// trace is generated only if one of its cells missed, and each (trace,
// options) class with a miss gets its records once — from the slab store
// when there is one, mapped at the class's first cell and unmapped after
// its last. The trace's first missed cell first converts all its missing
// slabs in one pass over a streamed generation (convertTrace). Without a
// slab store, a class with several missed cells
// (Table 3's nine prefetcher models, the ablation's eighteen
// configurations) is converted once into memory, and a class with one (a
// sweep variant) streams through its own converter, which keeps peak
// memory at one batch per cell.
//
// Result-cache statistics count every cell the store did not serve once:
// a hit in the lookup phase, or a miss and a compute when the cell runs.
func (c *SweepConfig) execute(profiles []synth.Profile, cells []cell) *executed {
	ex := &executed{
		cells:   cells,
		keys:    make([]resultcache.Key, len(cells)),
		results: make([]Result, len(cells)),
		stored:  make([]bool, len(cells)),
		errs:    make([]error, len(cells)),
		genErrs: make([]error, len(profiles)),
	}
	if c.Cache != nil || c.Exp != nil {
		ex.keys = c.cellKeys(profiles, cells)
	}
	traces := make([]traceInput, len(profiles))
	for _, cl := range cells {
		traces[cl.trace].left.Add(1)
	}
	var done atomic.Int32
	finish := func(ti int) {
		if traces[ti].left.Add(-1) == 0 && c.Progress != nil {
			c.Progress(int(done.Add(1)), len(profiles))
		}
	}

	hit := make([]bool, len(cells))
	if c.Cache != nil && c.Exp != nil {
		// A failed lookup misses every cell; the store has already
		// counted and warned about its cause.
		found, _ := c.Exp.Lookup(ex.keys)
		for i, key := range ex.keys {
			if cell, ok := found[key]; ok {
				hit[i], ex.stored[i] = true, true
				ex.results[i] = cellResult(cell)
				finish(cells[i].trace)
			}
		}
	}
	if c.Cache != nil {
		forEach(len(cells), c.Parallelism, func(i int) {
			if ex.stored[i] {
				return
			}
			res, ok := c.Cache.Lookup(ex.keys[i])
			if !ok {
				return
			}
			hit[i] = true
			ex.results[i] = res
			cl := &cells[i]
			c.recordCell(&profiles[cl.trace], cl.variant, cl.simCfg, ex.keys[i], res)
			finish(cl.trace)
		})
	}
	var misses []int
	for i := range cells {
		if !hit[i] {
			misses = append(misses, i)
		}
	}
	if len(misses) == 0 {
		return ex
	}

	classOf, classes := converterClasses(cells, misses)
	for _, in := range classes {
		in.tr = &traces[in.trace]
		in.tr.users.Add(1)
		in.tr.opts = append(in.tr.opts, in.opts)
	}
	forEach(len(misses), c.Parallelism, func(k int) {
		i := misses[k]
		cl := &cells[i]
		p := &profiles[cl.trace]
		in := classes[classOf[i]]
		compute := func() (Result, error) {
			src, conv, cleanup, err := c.input(p, in)
			if err != nil {
				return Result{}, err
			}
			defer cleanup()
			st, err := sim.Run(src, cl.simCfg, c.Warmup, 0)
			if err != nil {
				return Result{}, err
			}
			return Result{IPC: st.IPC(), Sim: st, Conv: conv()}, nil
		}
		var res Result
		var err error
		if c.Cache != nil {
			res, err = c.Cache.GetOrCompute(ex.keys[i], compute)
		} else {
			res, err = compute()
		}
		if err == nil {
			ex.results[i] = res
			c.recordCell(p, cl.variant, cl.simCfg, ex.keys[i], res)
		} else {
			ex.errs[i] = fmt.Errorf("experiments: %s/%s: %w", p.Name, cl.variant, err)
		}
		in.release()
		finish(cl.trace)
	})
	for ti := range traces {
		if err := traces[ti].genErr(); err != nil {
			ex.genErrs[ti] = fmt.Errorf("experiments: generate %s: %w", profiles[ti].Name, err)
		}
	}
	return ex
}

// input acquires a class's records on first use and returns one cell's
// source over them, a getter for the converter statistics (valid once the
// source is drained) and a cleanup: a reader of the shared slab (which
// drops the pages it has read) or of the in-memory conversion, or — for a
// lone missed cell without a slab store — a streaming converter over the
// trace's instructions. Streaming peaks lower than converting that class
// into memory: for `-exp all -step 17` with every store off on 2 vCPU, 89
// against 90–94 MB at -parallel 1 and 119–121 against 125–143 MB at
// -parallel 2, at the same wall time.
func (c *SweepConfig) input(p *synth.Profile, in *classInput) (champtrace.Source, func() core.Stats, func(), error) {
	tr := in.tr
	if c.Slabs == nil && in.cells == 1 {
		instrs, err := tr.generate(p, c.Instructions)
		if err != nil {
			return nil, nil, nil, err
		}
		cs := core.NewConverterSource(cvp.NewValuesSource(instrs), in.opts)
		return cs, cs.Stats, func() { cs.Close() }, nil
	}
	in.once.Do(func() {
		defer tr.unuse()
		if c.Slabs != nil {
			tr.pass.Do(func() { tr.passErr = c.convertTrace(p, tr.opts) })
			if in.err = tr.passErr; in.err != nil {
				return
			}
			// The pass left the class's slab on disk, unless its write
			// failed or the slab was evicted or damaged since: then it is
			// written again, from the generated instructions. A slab's
			// persisted converter statistics equal the streaming
			// converter's, which the slab-transparency oracle enforces.
			key := slabKey(p, in.opts, c.Instructions)
			sl, ok := c.Slabs.Get(key)
			if !ok {
				// The store warns about and counts a failed write.
				err := c.Slabs.Write(key, func(emit func([]champtrace.Instruction) error) (core.Stats, error) {
					instrs, err := tr.generate(p, c.Instructions)
					if err != nil {
						return core.Stats{}, err
					}
					return core.ConvertEmit(cvp.NewValuesSource(instrs), in.opts, emit)
				})
				if err == nil {
					sl, ok = c.Slabs.Get(key)
				}
			}
			if ok {
				in.slab, in.conv = sl, sl.Conv()
				return
			}
			// Still no slab: convert into memory, as without a store.
		}
		instrs, err := tr.generate(p, c.Instructions)
		if err != nil {
			in.err = err
			return
		}
		in.recs, in.conv, in.err = core.ConvertAllBatch(cvp.NewValuesSource(instrs), in.opts)
	})
	if in.err != nil {
		return nil, nil, nil, in.err
	}
	var src champtrace.Source
	if in.slab != nil {
		src = in.slab.Source()
	} else {
		src = champtrace.NewValuesSource(in.recs)
	}
	conv := in.conv
	return src, func() core.Stats { return conv }, func() {}, nil
}
