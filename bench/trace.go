package main

import (
	"context"
	"crypto/md5"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"time"

	"tracerebase/internal/experiments"
	"tracerebase/internal/expstore"
	"tracerebase/internal/report"
	"tracerebase/internal/resultcache"
	"tracerebase/internal/server"
	"tracerebase/internal/tracestore"
)

// The traced run repeats a workload in process, through the same public
// calls cmd/rebase makes, with a span around every call into a layer and a
// CPU profile of each experiment span. Untraced passes alternate with the
// traced ones, so the difference between the two is the tracing overhead.
// The starting state is built in process too: result-cache and
// experiment-store keys embed the build fingerprint, so cells written by
// the rebase binary would all miss here.

// span is one timed call, in nanoseconds since the tracer started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for a top-level span
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, which is how the untraced passes run the same code.
type tracer struct {
	start time.Time
	mu    sync.Mutex
	spans []span
	open  int // innermost open region; spans begun on any goroutine nest under it
}

func newTracer() *tracer { return &tracer{start: time.Now()} }

func (t *tracer) begin(name string) (id, parent int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	id = len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: t.open, Name: name, Start: int64(time.Since(t.start))})
	return id, t.open
}

func (t *tracer) finish(id int) {
	t.mu.Lock()
	t.spans[id-1].End = int64(time.Since(t.start))
	t.mu.Unlock()
}

// region runs f inside a span that the spans begun during f nest under.
func (t *tracer) region(name string, f func()) {
	if t == nil {
		f()
		return
	}
	id, parent := t.begin(name)
	t.mu.Lock()
	t.open = id
	t.mu.Unlock()
	f()
	t.finish(id)
	t.mu.Lock()
	t.open = parent
	t.mu.Unlock()
}

// leaf begins a span and returns the function that ends it.
func (t *tracer) leaf(name string) func() {
	if t == nil {
		return func() {}
	}
	id, _ := t.begin(name)
	return func() { t.finish(id) }
}

func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// timedBackend wraps the result cache's backend with a span around every
// Get and Put, counting hits, misses and payload bytes.
type timedBackend struct {
	resultcache.Backend
	tr *tracer

	mu sync.Mutex
	c  backendCounts
}

type backendCounts struct{ hits, misses, puts, bytesRead, bytesWritten uint64 }

func (b *timedBackend) Get(key resultcache.Key) ([]byte, error) {
	end := b.tr.leaf("resultcache.get")
	p, err := b.Backend.Get(key)
	end()
	b.mu.Lock()
	if err == nil {
		b.c.hits++
		b.c.bytesRead += uint64(len(p))
	} else {
		b.c.misses++
	}
	b.mu.Unlock()
	return p, err
}

func (b *timedBackend) Put(key resultcache.Key, payload []byte) error {
	end := b.tr.leaf("resultcache.put")
	err := b.Backend.Put(key, payload)
	end()
	b.mu.Lock()
	b.c.puts++
	b.c.bytesWritten += uint64(len(payload))
	b.mu.Unlock()
	return err
}

func (b *timedBackend) counts() backendCounts {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.c
}

// stores is the engine configuration one pass runs, with the stores it
// opened.
type stores struct {
	cfg   experiments.SweepConfig
	timed *timedBackend // nil without a result cache or a tracer
}

// openStores composes the workload's stores over dir as the program does:
// cmd/rebase opens the result cache (unless -no-cache), the slab store and
// the experiment store; `rebase serve` puts a memory tier in front of the
// disk cache.
func (h *harness) openStores(workload, dir string, tr *tracer) (stores, error) {
	s := stores{cfg: experiments.SweepConfig{
		Instructions: h.cfg.Instructions,
		Warmup:       h.cfg.Warmup,
		Parallelism:  h.nproc,
	}}
	var err error
	if workload != "slabwarm_all" {
		tr.region("open.resultcache", func() {
			var disk *resultcache.Disk
			if disk, err = resultcache.NewDisk(resultcache.DiskConfig{Dir: dir}); err != nil {
				return
			}
			var b resultcache.Backend = disk
			if workload == "service_mix" {
				b = resultcache.NewTiered(resultcache.NewMemory(0), disk)
			}
			if tr != nil {
				s.timed = &timedBackend{Backend: b, tr: tr}
				b = s.timed
			}
			s.cfg.Cache = experiments.NewResultCache(b)
		})
		if err != nil {
			return s, err
		}
	}
	tr.region("open.tracestore", func() { s.cfg.Slabs, err = experiments.OpenSlabStore(dir+"/slabs", 0, nil) })
	if err != nil {
		s.close()
		return s, err
	}
	tr.region("open.expstore", func() { s.cfg.Exp, err = expstore.Open(expstore.Config{Dir: dir + "/exp"}) })
	if err != nil {
		s.close()
		return s, err
	}
	return s, nil
}

func (s stores) close() error {
	var errs []error
	if s.cfg.Cache != nil {
		errs = append(errs, s.cfg.Cache.Close())
	}
	if s.cfg.Slabs != nil {
		s.cfg.Slabs.Close()
	}
	if s.cfg.Exp != nil {
		errs = append(errs, s.cfg.Exp.Close())
	}
	return errors.Join(errs...)
}

// group is one experiment span: the report.Run call rendering part of the
// configured experiment list.
type group struct{ name, exp string }

// groups splits the configured experiments into the spans a pass times:
// table1, the sweep behind the figures, table2 and table3. In this order
// their outputs concatenate to the output of one run of the whole list.
func (c runConfig) groups() []group {
	wants := strings.Split(c.Exp, ",")
	if c.Exp == "all" {
		wants = []string{"table1", "fig1", "fig2", "fig3", "fig4", "fig5", "table2", "table3"}
	}
	var gs []group
	var figs []string
	for _, w := range wants {
		if strings.HasPrefix(w, "fig") {
			figs = append(figs, w)
		}
	}
	for _, name := range []string{"table1", "sweep", "table2", "table3"} {
		switch {
		case name == "sweep" && len(figs) > 0:
			gs = append(gs, group{"sweep", strings.Join(figs, ",")})
		case name != "sweep" && slices.Contains(wants, name):
			gs = append(gs, group{name, name})
		}
	}
	return gs
}

// passOut is what one pass did.
type passOut struct {
	wall           time.Duration // of the experiment spans
	rc             backendCounts
	slabs          tracestore.Stats
	exp            expstore.Stats
	cellsWritten   int
	cellsSimulated int
	cells          []expstore.Cell // the store's contents afterwards
}

// pass runs the configured experiments once over dir, checking the output
// against the pinned md5. With acc set, every experiment span runs under a
// CPU profile whose fold is added to acc.
func (h *harness) pass(workload, dir string, tr *tracer, acc accounting) (passOut, error) {
	var out passOut
	before, err := scanStore(dir)
	if err != nil {
		return out, err
	}
	s, err := h.openStores(workload, dir, tr)
	if err != nil {
		return out, err
	}
	misses := 0
	s.cfg.ExpMisses = func(n int) { misses += n }
	sum := md5.New()
	for _, g := range h.cfg.groups() {
		var cs *cpuSpan
		if acc != nil {
			if cs, err = startCPU(); err != nil {
				break
			}
		}
		start := time.Now()
		tr.region(g.name, func() {
			_, err = report.Run(s.cfg, report.Spec{Exp: g.exp, Step: h.cfg.Step}, report.Output{Text: sum})
		})
		out.wall += time.Since(start)
		if cs != nil {
			sc, perr := cs.stop()
			acc.add(g.name, sc)
			err = errors.Join(err, perr)
		}
		if err != nil {
			break
		}
	}
	if err == nil {
		tr.region("expstore.flush", func() { err = s.cfg.Exp.Flush() })
	}
	out.slabs, out.exp = s.cfg.Slabs.Stats(), s.cfg.Exp.Stats()
	if s.timed != nil {
		out.rc = s.timed.counts()
	}
	tr.region("close", func() { err = errors.Join(err, s.close()) })
	if err != nil {
		return out, err
	}
	if got := hex.EncodeToString(sum.Sum(nil)); got != h.cfg.MD5 {
		return out, fmt.Errorf("traced pass output md5 %s, want %s", got, h.cfg.MD5)
	}
	if misses != 0 {
		return out, fmt.Errorf("experiment store read-back missed %d cells", misses)
	}
	if out.cells, err = scanStore(dir); err != nil {
		return out, err
	}
	if len(out.cells) != h.cfg.Cells {
		return out, fmt.Errorf("experiment store holds %d cells after the pass, want %d", len(out.cells), h.cfg.Cells)
	}
	out.cellsWritten = len(out.cells) - len(before)
	out.cellsSimulated = int(out.exp.Appends)
	if s.cfg.Cache != nil {
		out.cellsSimulated = int(out.rc.puts)
	}
	return out, nil
}

// accounting sums what each span used across the traced passes.
type accounting map[string]*spanTotals

type spanTotals struct {
	walls         []float64 // seconds, one per pass
	wall, cpu, gc float64   // seconds, summed over passes
	fold          fold
}

func (a accounting) add(name string, s spanCPU) {
	t := a[name]
	if t == nil {
		t = &spanTotals{}
		a[name] = t
	}
	t.walls = append(t.walls, s.Wall.Seconds())
	t.wall += s.Wall.Seconds()
	t.cpu += s.CPU.Seconds()
	t.gc += s.GC
	t.fold.add(s.Fold)
}

// traced runs a workload's traced passes, the layer microbenchmarks and the
// server phase, and returns every per-layer metric.
func (h *harness) traced(name string) result {
	var t tally
	m := map[string]metric{}
	tr := newTracer()
	fresh := name == "cold_all"
	dir := h.tempDir(name)
	if !fresh {
		// Every warm state starts from one cold run, as in the end-to-end
		// workloads.
		_, err := h.pass("cold_all", dir, nil, nil)
		if !t.record(err) {
			return newResult(t, m)
		}
	}

	acc := accounting{}
	var plain, traced []float64
	var first passOut
	start := time.Now()
	for i := 0; ; i++ {
		d := dir
		if fresh && i > 0 {
			d = h.tempDir(name)
		}
		var po passOut
		var err error
		if i%2 == 1 {
			po, err = h.pass(name, d, tr, acc)
			if len(traced) == 0 {
				first = po
			}
			traced = append(traced, po.wall.Seconds())
		} else {
			po, err = h.pass(name, d, nil, nil)
			plain = append(plain, po.wall.Seconds())
		}
		if !t.record(err) {
			return newResult(t, m)
		}
		if fresh && d != dir {
			// Keep one filled dir for the microbenchmarks and the server.
			os.RemoveAll(d)
		}
		if i%2 == 1 && (h.maxOps > 0 || time.Since(start).Seconds() > h.seconds/2) {
			break
		}
	}

	h.micro(&t, dir, tr, m)
	h.serverPhase(&t, name, dir, tr, acc, m)

	P := float64(h.nproc)
	var capacity, cpu, gc float64
	var all fold
	for name, s := range acc {
		capacity += s.wall * P
		cpu += s.cpu
		gc += s.gc
		all.add(s.fold)
		// Folded CPU plus idle time must account for wall × parallelism:
		// the profile's samples must match the CPU getrusage measured. Below
		// a second of capacity the profile's 10 ms resolution dominates.
		if c := s.wall * P; c >= 1 {
			if gap := math.Abs(s.cpu-s.fold.total()) / c; gap > 0.05 {
				fmt.Fprintf(os.Stderr, "bench: warning: %s span: %.1f%% of wall×parallelism unattributed by the profile\n", name, 100*gap)
			}
		}
	}
	for _, g := range []string{"sweep", "table2", "table3"} {
		var wall, busy float64
		if s := acc[g]; s != nil {
			wall, busy = median(s.walls), s.cpu/(s.wall*P)
		}
		set(m, perLayerMetrics, "experiments."+g+"_s", wall)
		set(m, perLayerMetrics, "experiments."+g+"_busy_share", busy)
	}
	for _, l := range layers {
		set(m, perLayerMetrics, l+".cpu_share", ratio(all.Layers[l], capacity))
	}
	for _, st := range simStages {
		set(m, perLayerMetrics, "sim."+st+"_share", ratio(all.Stages[st], all.Layers["sim"]))
	}
	set(m, perLayerMetrics, "runtime.idle_share", ratio(capacity-cpu, capacity))
	set(m, perLayerMetrics, "runtime.gc_share", ratio(gc, capacity))
	set(m, perLayerMetrics, "trace.unattributed_share", ratio(cpu-all.total(), capacity))
	set(m, perLayerMetrics, "trace.overhead_pct", 100*(median(traced)/median(plain)-1))

	set(m, perLayerMetrics, "experiments.cells_simulated", float64(first.cellsSimulated))
	set(m, perLayerMetrics, "experiments.sim_kips", ratio(float64(first.cellsSimulated*h.cfg.Instructions)/1e3, median(traced)))
	set(m, perLayerMetrics, "core.converts", float64(first.slabs.Converts))
	set(m, perLayerMetrics, "tracestore.hits", float64(first.slabs.Hits))
	set(m, perLayerMetrics, "tracestore.misses", float64(first.slabs.Misses))
	set(m, perLayerMetrics, "tracestore.bytes_written", float64(first.slabs.BytesWritten))
	set(m, perLayerMetrics, "tracestore.bytes_mapped", float64(first.slabs.BytesMapped))
	set(m, perLayerMetrics, "resultcache.hits", float64(first.rc.hits))
	set(m, perLayerMetrics, "resultcache.misses", float64(first.rc.misses))
	set(m, perLayerMetrics, "resultcache.bytes_read", float64(first.rc.bytesRead))
	set(m, perLayerMetrics, "resultcache.bytes_written", float64(first.rc.bytesWritten))
	set(m, perLayerMetrics, "expstore.appends", float64(first.exp.Appends))
	set(m, perLayerMetrics, "expstore.cells_written", float64(first.cellsWritten))
	var instrs, cycles, skipped uint64
	for _, c := range first.cells {
		instrs += c.Sim.Instructions
		cycles += c.Sim.Cycles
		skipped += c.Sim.SkippedCycles
	}
	set(m, perLayerMetrics, "sim.instructions", float64(instrs))
	set(m, perLayerMetrics, "sim.cycles", float64(cycles))
	set(m, perLayerMetrics, "sim.skipped_cycles", float64(skipped))

	path := filepath.Join(h.build, "spans-"+name+".json")
	if err := tr.write(path); err != nil {
		fmt.Fprintf(os.Stderr, "bench: writing spans: %v\n", err)
	} else {
		fmt.Fprintf(os.Stderr, "bench: %d spans written to %s\n", len(tr.spans), path)
	}
	return newResult(t, m)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// serverPhase serves dir from an in-process server composed as
// `rebase serve` composes it, drives the seeded request mix through it and
// records the per-request-type latencies; for service_mix the phase is
// profiled like an experiment span. It also times exec-to-ready launches of
// the real daemon.
func (h *harness) serverPhase(t *tally, workload, dir string, tr *tracer, acc accounting, m map[string]metric) {
	var ready []float64
	for i := 0; i < 3; i++ {
		d, err := h.startDaemon(dir)
		if !t.record(err) {
			return
		}
		ready = append(ready, float64(d.ready)/1e6)
		t.record(d.stop())
	}
	set(m, perLayerMetrics, "server.ready_ms", percentile(ready, 50))

	s, err := h.openStores("service_mix", dir, nil)
	if !t.record(err) {
		return
	}
	defer s.close()
	jobs := map[string]string{}
	for _, exp := range h.cfg.Jobs {
		sum := md5.New()
		_, err := report.Run(s.cfg, report.Spec{Exp: exp, Step: h.cfg.Step}, report.Output{Text: sum})
		t.record(err)
		jobs[exp] = hex.EncodeToString(sum.Sum(nil))
	}
	srv := server.New(server.Config{Backend: s.cfg.Cache.Backend(), Base: s.cfg, Workers: 1})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if !t.record(err) {
		return
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(l) }()
	client := newServiceClient("http://"+l.Addr().String(), h.cfg, h.nproc)
	pool := queryPool(h.seed, h.cfg)
	tr.region("server.prepare", func() { client.prepare(t, jobs, pool) })
	mix := serviceMix(h.seed, h.cfg.Jobs, pool)

	var cs *cpuSpan
	if workload == "service_mix" {
		if cs, err = startCPU(); !t.record(err) {
			cs = nil
		}
	}
	var res loadResult
	tr.region("server.load", func() {
		res = client.load(t, mix, h.nproc, min(2, h.seconds/4), h.maxRequests)
	})
	if cs != nil {
		sc, err := cs.stop()
		t.record(err)
		acc.add("service", sc)
	}
	client.close()
	var memHits uint64
	for _, tier := range srv.StatusSnapshot().Tiers {
		if tier.Name == "memory" {
			memHits = tier.Hits
		}
	}
	ctx, cancel := context.WithTimeout(h.ctx, 30*time.Second)
	defer cancel()
	t.record(srv.Shutdown(ctx))
	t.record(<-served)

	set(m, perLayerMetrics, "server.job_p50_ms", percentile(res.jobMS, 50))
	set(m, perLayerMetrics, "server.job_p99_ms", percentile(res.jobMS, 99))
	set(m, perLayerMetrics, "server.query_p50_ms", percentile(res.queryMS, 50))
	set(m, perLayerMetrics, "server.query_p99_ms", percentile(res.queryMS, 99))
	set(m, perLayerMetrics, "server.memory_hits", float64(memHits))
}
