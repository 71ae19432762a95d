package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/md5"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/url"
	"os"
	"os/exec"
	"runtime/pprof"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"tracerebase/internal/experiments"
	"tracerebase/internal/report"
	"tracerebase/internal/server"
	"tracerebase/internal/synth"
)

// request is one operation of the service mix: a job replay (POST /jobs)
// or a query (GET /query).
type request struct {
	job   string // experiment list of the job, or ""
	query string
}

// serviceClient drives a daemon and checks every response: a job body must
// equal the batch output of the same spec, and a query's rows must hash to
// what the query returned when it was compared with its full-scan twin.
type serviceClient struct {
	base    string
	hc      *http.Client
	cfg     runConfig
	jobs    map[string]string // experiment list → md5 of the batch output
	queries map[string]string // query → hash of its rows
	next    atomic.Int64      // the next request of the mix; load phases continue it
}

func newServiceClient(base string, cfg runConfig, conns int) *serviceClient {
	return &serviceClient{
		base: base,
		cfg:  cfg,
		hc: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: conns,
			MaxConnsPerHost:     conns,
		}},
		queries: map[string]string{},
	}
}

func (c *serviceClient) close() { c.hc.CloseIdleConnections() }

// prepare submits every job once and compares every query of the pool with
// its full-scan twin, recording the expected query hashes.
func (c *serviceClient) prepare(t *tally, jobs map[string]string, pool []string) {
	c.jobs = jobs
	for _, exp := range c.cfg.Jobs {
		t.record(c.do(request{job: exp}))
	}
	for _, q := range pool {
		pruned, err1 := c.queryRows(q, false)
		full, err2 := c.queryRows(q, true)
		err := errors.Join(err1, err2)
		if err == nil && pruned != full {
			err = fmt.Errorf("query %q: pruned rows differ from the full scan", q)
		}
		if t.record(err) {
			c.queries[q] = pruned
		}
	}
}

func (c *serviceClient) do(r request) error {
	if r.job != "" {
		return c.submit(r.job)
	}
	rows, err := c.queryRows(r.query, false)
	if err == nil && rows != c.queries[r.query] {
		err = fmt.Errorf("query %q: rows changed", r.query)
	}
	return err
}

// submit posts one job and checks the concatenated chunk text of its event
// stream against the batch output.
func (c *serviceClient) submit(exp string) error {
	body, _ := json.Marshal(server.JobSpec{Exp: exp, Step: c.cfg.Step, Instructions: c.cfg.Instructions, Warmup: c.cfg.Warmup})
	resp, err := c.hc.Post(c.base+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("job %s: %w", exp, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("job %s: HTTP %d", exp, resp.StatusCode)
	}
	sum := md5.New()
	dec := json.NewDecoder(bufio.NewReader(resp.Body))
	for {
		var ev server.Event
		if err := dec.Decode(&ev); err != nil {
			return fmt.Errorf("job %s: stream ended without done: %v", exp, err)
		}
		switch ev.Type {
		case "chunk":
			io.WriteString(sum, ev.Text)
		case "error":
			return fmt.Errorf("job %s: %s", exp, ev.Error)
		case "done":
			if got := hex.EncodeToString(sum.Sum(nil)); got != c.jobs[exp] {
				return fmt.Errorf("job %s: body md5 %s, want %s", exp, got, c.jobs[exp])
			}
			return nil
		}
	}
}

// queryRows runs one query and hashes its result without the scan
// statistics, which legitimately differ between pruned and full scans.
func (c *serviceClient) queryRows(q string, fullScan bool) (string, error) {
	u := c.base + "/query?q=" + url.QueryEscape(q)
	if fullScan {
		u += "&full-scan=1"
	}
	resp, err := c.hc.Get(u)
	if err != nil {
		return "", fmt.Errorf("query %q: %w", q, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", fmt.Errorf("query %q: %w", q, err)
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("query %q: HTTP %d: %s", q, resp.StatusCode, strings.TrimSpace(string(data)))
	}
	var doc struct {
		Metric  string          `json:"metric"`
		GroupBy []string        `json:"group_by"`
		Stats   []string        `json:"stats"`
		Rows    json.RawMessage `json:"rows"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return "", fmt.Errorf("query %q: %w", q, err)
	}
	rows, _ := json.Marshal(doc)
	sum := md5.Sum(rows)
	return hex.EncodeToString(sum[:]), nil
}

// loadResult is what a closed-loop load phase measured.
type loadResult struct {
	jobMS, queryMS []float64
	elapsed        time.Duration
}

func (r loadResult) all() []float64 { return append(slices.Clone(r.jobMS), r.queryMS...) }

// load replays mix from conns closed-loop clients, each sending its next
// request only when the previous one completed, until seconds pass or
// maxOps requests (0 = no cap) have been sent. Every response is checked.
func (c *serviceClient) load(t *tally, mix []request, conns int, seconds float64, maxOps int) loadResult {
	first := c.next.Load()
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	type worker struct {
		res loadResult
		t   tally
	}
	ws := make([]worker, conns)
	start := time.Now()
	var wg sync.WaitGroup
	for i := range ws {
		wg.Add(1)
		go pprof.Do(context.Background(), pprof.Labels(benchLabel, "client"), func(context.Context) {
			defer wg.Done()
			w := &ws[i]
			for {
				n := c.next.Add(1) - 1
				if (maxOps > 0 && n-first >= int64(maxOps)) || (maxOps == 0 && time.Now().After(deadline)) {
					return
				}
				r := mix[n%int64(len(mix))]
				t0 := time.Now()
				err := c.do(r)
				ms := float64(time.Since(t0)) / 1e6
				w.t.record(err)
				if r.job != "" {
					w.res.jobMS = append(w.res.jobMS, ms)
				} else {
					w.res.queryMS = append(w.res.queryMS, ms)
				}
			}
		})
	}
	wg.Wait()
	out := loadResult{elapsed: time.Since(start)}
	for _, w := range ws {
		out.jobMS = append(out.jobMS, w.res.jobMS...)
		out.queryMS = append(out.queryMS, w.res.queryMS...)
		t.merge(w.t)
	}
	return out
}

// serviceMix is the seeded request sequence, built of rounds that each
// hold as many job replays as queries, every job spec and every query of
// the pool equally often, in a seeded order. Only the order depends on the
// seed, so every seed asks the service for the same work and the seed does
// not show in the run-to-run spread.
func serviceMix(seed uint64, jobs, pool []string) []request {
	rng := rand.New(rand.NewPCG(seed, 0x5e41ce))
	per := len(jobs) * len(pool) // requests of each kind in one round
	var mix []request
	for len(mix) < 1<<14 {
		round := make([]request, 0, 2*per)
		for i := 0; i < per; i++ {
			round = append(round, request{job: jobs[i%len(jobs)]}, request{query: pool[i%len(pool)]})
		}
		rng.Shuffle(len(round), func(i, j int) { round[i], round[j] = round[j], round[i] })
		mix = append(mix, round...)
	}
	return mix
}

// queryPool fills four query shapes with every value of their filter: each
// category's per-variant summary, each variant's per-category tail, each
// Table 3 prefetcher's ranking inputs, and each trace's cells across
// models. The seed picks the metric each summary aggregates; the filter
// values are not drawn, since their costs differ and a drawn pool would
// make one seed's work cheaper than another's.
func queryPool(seed uint64, cfg runConfig) []string {
	rng := rand.New(rand.NewPCG(seed, 0x9e3779b9))
	pick := func(xs []string) string { return xs[rng.IntN(len(xs))] }
	cats := []string{string(synth.ComputeInt), string(synth.ComputeFP), string(synth.Crypto), string(synth.Server)}
	metrics := []string{"ipc", "cycles", "mispredicts", "l1i_misses", "l1d_misses"}
	var variants []string
	for _, v := range experiments.Variants() {
		variants = append(variants, v.Name)
	}
	variants = append(variants, "competition", "fixed")
	prefetchers := append([]string{"none"}, experiments.Table3Prefetchers...)
	var traces []string
	for _, p := range report.Subsample(synth.PublicSuite(), cfg.Step) {
		traces = append(traces, p.Name)
	}
	for _, t := range report.SubsampleIPC1(synth.IPC1Suite(), cfg.Step) {
		traces = append(traces, t.Name)
	}
	var pool []string
	for _, c := range cats {
		pool = append(pool, fmt.Sprintf("category=%s metric=%s group-by=variant stat=mean,p50", c, pick(metrics)))
	}
	for _, v := range variants {
		pool = append(pool, fmt.Sprintf("variant=%s group-by=category,config stat=p90,max", v))
	}
	for _, p := range prefetchers {
		pool = append(pool, fmt.Sprintf("config=ipc1 prefetcher=%s group-by=variant,category stat=mean,geomean", p))
	}
	for _, t := range traces {
		pool = append(pool, fmt.Sprintf("trace=%s metric=%s group-by=config,variant stat=sum,min", t, pick(metrics)))
	}
	return pool
}

// daemon is a running `rebase serve`.
type daemon struct {
	c     *child
	url   string
	ready time.Duration // from exec until /healthz answered
}

// startDaemon launches `rebase serve` over dir and waits until it answers
// /healthz. Its log goes to a file, from which the listen address is read.
func (h *harness) startDaemon(dir string) (*daemon, error) {
	logPath := h.tempDir("serve") + ".log"
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	cmd := exec.Command(h.bin, "serve", "-addr", "127.0.0.1:0", "-workers", "1",
		"-parallel", fmt.Sprint(h.nproc), "-cache-dir", dir)
	cmd.Stdout, cmd.Stderr = logf, logf
	start := time.Now()
	c, err := h.start(cmd)
	if err != nil {
		return nil, err
	}
	d := &daemon{c: c}
	hc := &http.Client{Timeout: time.Second}
	defer hc.CloseIdleConnections()
	for time.Since(start) < 30*time.Second {
		select {
		case <-c.done:
			log, _ := os.ReadFile(logPath)
			return nil, fmt.Errorf("rebase serve exited: %v\n%s", c.err, log)
		default:
		}
		if d.url == "" {
			log, _ := os.ReadFile(logPath)
			if _, rest, ok := strings.Cut(string(log), "serving on "); ok {
				d.url, _, _ = strings.Cut(rest, " ")
			}
		} else if resp, err := hc.Get(d.url + "/healthz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				d.ready = time.Since(start)
				return d, nil
			}
		}
		time.Sleep(200 * time.Microsecond)
	}
	d.stop()
	return nil, fmt.Errorf("rebase serve not ready after 30s")
}

// stop drains the daemon with SIGTERM, as an operator would, and waits for
// it to exit.
func (d *daemon) stop() error {
	d.c.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.c.done:
		return d.c.err
	case <-time.After(30 * time.Second):
		d.c.cmd.Process.Kill()
		<-d.c.done
		return errors.New("rebase serve did not drain within 30s")
	}
}
