package main

import (
	"bytes"
	"crypto/md5"
	"encoding/hex"
	"fmt"
	"os"
	"os/exec"
	"slices"
	"strings"
	"time"

	"tracerebase/internal/expstore"
)

// The end-to-end workloads run the rebase binary under test exactly as a
// user would, with tracing off. The three CLI workloads run the fixed
// paper suite of the reference configuration, so they do not depend on
// the seed; service_mix draws its request order and query filter values
// from it.

func (h *harness) endToEnd(name string) result {
	switch name {
	case "cold_all":
		return h.cliWorkload(name, false, false)
	case "slabwarm_all":
		return h.cliWorkload(name, true, true)
	case "warm_all":
		return h.cliWorkload(name, true, false)
	default:
		return h.serviceWorkload()
	}
}

// cliWorkload measures back-to-back invocations of
// `rebase -exp all ... -cache-dir <dir>`. Cold invocations each get a fresh
// empty dir; the others share one dir filled by a first cold invocation,
// and slab-warm ones pass -no-cache so every cell simulates from the
// mapped slabs without generating or converting anything.
func (h *harness) cliWorkload(name string, filled, noCache bool) result {
	var t tally
	args := func(exp, dir string) []string {
		a := h.cfg.args(exp, dir, h.nproc)
		if noCache {
			a = append(a, "-no-cache")
		}
		return a
	}
	dir := h.tempDir(name)
	if filled {
		t.record(h.checkRun(h.rebase(h.cfg.args(h.cfg.Exp, dir, h.nproc)), dir))
	}
	setup := &setupTimer{h: h, args: args("", dir)}
	once := func() invocation {
		d := dir
		if !filled {
			d = h.tempDir(name)
			defer os.RemoveAll(d)
		}
		inv := h.rebase(args(h.cfg.Exp, d))
		t.record(h.checkRun(inv, d))
		t.record(setup.sample(inv.wall / 20))
		return inv
	}

	// The first warm invocations after set-up run measurably slower (page
	// cache, CPU frequency); they are checked but not timed. A cold or
	// slab-warm invocation runs for about ten seconds, which those effects
	// do not move, so those workloads time every invocation.
	warmups := 0
	if filled && !noCache {
		warmups = 20
	}
	for i := 0; h.warmups && i < warmups; i++ {
		once()
	}
	var lat, rss []float64
	for start := time.Now(); h.more(start, len(lat)); {
		inv := once()
		lat = append(lat, float64(inv.wall)/1e6)
		rss = append(rss, inv.rssMB)
	}
	setupS, err := setup.median()
	t.record(err)
	// One client runs the invocations back to back, so its throughput is
	// the reciprocal of their latency; the median keeps one slow
	// invocation from moving it.
	p50 := percentile(lat, 50)
	m := map[string]metric{}
	set(m, endToEndMetrics, "p50_ms", p50)
	set(m, endToEndMetrics, "ops_per_s", 1e3/p50)
	// Peak RSS is bimodal from one invocation to the next (whether the slab
	// prefetcher maps a few more slabs before the run ends), so the run
	// reports the highest: the memory a user has to provision.
	set(m, endToEndMetrics, "peak_rss_mb", slices.Max(rss))
	set(m, endToEndMetrics, "setup_s", setupS)
	reportTail(name, "invocations", lat)
	return newResult(t, m)
}

// reportTail prints the highest percentile with ten samples beyond it, and
// the sample count, to standard error.
func reportTail(name, what string, ms []float64) {
	if p, ok := tailPercentile(len(ms)); ok {
		fmt.Fprintf(os.Stderr, "%s: %d %s, p50 %.3f ms, p%g %.3f ms\n", name, len(ms), what, percentile(ms, 50), p, percentile(ms, p))
	} else {
		fmt.Fprintf(os.Stderr, "%s: %d %s, p50 %.3f ms (too few for a tail percentile)\n", name, len(ms), what, percentile(ms, 50))
	}
}

// serviceWorkload measures `rebase serve` over a filled dir: a closed loop
// of nproc keep-alive connections replaying the seeded mix of warm job
// submissions and block-pruned queries.
func (h *harness) serviceWorkload() result {
	var t tally
	dir := h.tempDir("service")
	t.record(h.checkRun(h.rebase(h.cfg.args(h.cfg.Exp, dir, h.nproc)), dir))
	jobs := map[string]string{}
	for _, exp := range h.cfg.Jobs {
		inv := h.rebase(h.cfg.args(exp, dir, h.nproc))
		t.record(inv.err)
		jobs[exp] = inv.md5
	}

	d, err := h.startDaemon(dir)
	if !t.record(err) {
		return newResult(t, nil)
	}
	client := newServiceClient(d.url, h.cfg, h.nproc)
	defer client.close()
	pool := queryPool(h.seed, h.cfg)
	client.prepare(&t, jobs, pool)
	mix := serviceMix(h.seed, h.cfg.Jobs, pool)
	if h.warmups {
		client.load(&t, mix, h.nproc, 1, 0)
	}

	// The load runs in ten segments. Between them a second daemon is
	// launched over the same dir and stopped again: the service's set-up is
	// the daemon's own, from exec until it answers /healthz, and sampling it
	// across the run keeps one slow moment of the machine from deciding it.
	const segments = 10
	var res loadResult
	var perSecond, ready []float64
	for i := 0; i < segments; i++ {
		seg := client.load(&t, mix, h.nproc, h.seconds/segments, h.maxRequests/segments)
		res.jobMS = append(res.jobMS, seg.jobMS...)
		res.queryMS = append(res.queryMS, seg.queryMS...)
		perSecond = append(perSecond, float64(len(seg.jobMS)+len(seg.queryMS))/seg.elapsed.Seconds())
		probe, err := h.startDaemon(dir)
		if t.record(err) {
			ready = append(ready, probe.ready.Seconds())
			t.record(probe.stop())
		}
	}
	t.record(d.stop())

	lat := res.all()
	m := map[string]metric{}
	set(m, endToEndMetrics, "p50_ms", percentile(lat, 50))
	set(m, endToEndMetrics, "ops_per_s", median(perSecond))
	set(m, endToEndMetrics, "peak_rss_mb", d.c.maxRSSMB())
	set(m, endToEndMetrics, "setup_s", median(ready))
	reportTail("service_mix", "requests", lat)
	return newResult(t, m)
}

// invocation is one finished rebase process.
type invocation struct {
	wall   time.Duration
	rssMB  float64
	md5    string
	stderr string
	err    error
}

func (h *harness) rebase(args []string) invocation {
	cmd := exec.Command(h.bin, args...)
	sum := md5.New()
	var stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = sum, &stderr
	start := time.Now()
	c, err := h.start(cmd)
	if err != nil {
		return invocation{err: err}
	}
	err = c.wait()
	inv := invocation{wall: time.Since(start), rssMB: c.maxRSSMB(), md5: hex.EncodeToString(sum.Sum(nil)), stderr: stderr.String()}
	if err != nil {
		inv.err = fmt.Errorf("rebase %s: %v: %s", strings.Join(args, " "), err, strings.TrimSpace(inv.stderr))
	}
	return inv
}

// checkRun checks one invocation of the configured experiments: it
// succeeded, printed the pinned output, and left the experiment store
// holding exactly one row per cell. The store is reopened and scanned
// rather than trusted from -bench-json, whose exp_store block under -q is
// taken before Close flushes the last cells.
func (h *harness) checkRun(inv invocation, dir string) error {
	if inv.err != nil {
		return inv.err
	}
	if inv.md5 != h.cfg.MD5 {
		return fmt.Errorf("rebase stdout md5 %s, want %s", inv.md5, h.cfg.MD5)
	}
	cells, err := scanStore(dir)
	if err != nil {
		return err
	}
	if len(cells) != h.cfg.Cells {
		return fmt.Errorf("experiment store holds %d cells, want %d", len(cells), h.cfg.Cells)
	}
	return nil
}

// scanStore reads every cell of the experiment store under a cache dir.
func scanStore(dir string) ([]expstore.Cell, error) {
	store, err := expstore.Open(expstore.Config{Dir: dir + "/exp"})
	if err != nil {
		return nil, err
	}
	defer store.Close()
	return store.ScanCells()
}

// setupTimer samples the set-up of a rebase invocation over the workload's
// dir: with an empty experiment list, rebase starts, parses its flags,
// opens the stores a measured invocation opens (the result cache unless
// -no-cache, the slab store and the experiment store) and closes them
// again, and prints nothing. Sampling between the measured invocations
// spreads the set-ups across the run.
type setupTimer struct {
	h       *harness
	args    []string
	runs    int       // including the discarded first ones
	samples []float64 // seconds
}

const (
	discardedSetups = 20
	minSetups       = 200
)

// emptyMD5 is the md5 of no output, all a set-up invocation may print.
const emptyMD5 = "d41d8cd98f00b204e9800998ecf8427e"

// sample runs set-up invocations for about budget, at least one.
func (s *setupTimer) sample(budget time.Duration) error {
	for start := time.Now(); ; {
		inv := s.h.rebase(s.args)
		if inv.err != nil {
			return inv.err
		}
		if inv.md5 != emptyMD5 {
			return fmt.Errorf("rebase with no experiments printed output (md5 %s)", inv.md5)
		}
		if s.runs++; s.runs > discardedSetups {
			s.samples = append(s.samples, inv.wall.Seconds())
		}
		if time.Since(start) >= budget {
			return nil
		}
	}
}

// median returns the median set-up in seconds, first topping the samples
// up to minSetups.
func (s *setupTimer) median() (float64, error) {
	for len(s.samples) < minSetups {
		if err := s.sample(0); err != nil {
			return 0, err
		}
	}
	return percentile(s.samples, 50), nil
}
