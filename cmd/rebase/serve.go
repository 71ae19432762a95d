package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/url"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"tracerebase/internal/experiments"
	"tracerebase/internal/resultcache"
	"tracerebase/internal/server"
)

// runServe is the `rebase serve` subcommand: the long-running sweep
// daemon over a tiered result-cache backend (memory LRU -> local disk ->
// optional remote peer).
func runServe(args []string) int {
	fs := flag.NewFlagSet("rebase serve", flag.ExitOnError)
	var (
		addr       = fs.String("addr", "127.0.0.1:8344", "listen address")
		workers    = fs.Int("workers", 1, "concurrent job executions (cache hits bypass the pool)")
		parallel   = fs.Int("parallel", 0, "concurrent simulations per job (0 = NumCPU)")
		cacheDir   = fs.String("cache-dir", "", "cache directory (default $TRACEREBASE_CACHE_DIR or the user cache dir)")
		memBytes   = fs.Int64("mem-bytes", 0, "in-memory tier budget in bytes (0 = 256 MiB)")
		remote     = fs.String("remote", "", "peer daemon to chain as the slowest cache tier, e.g. http://host:8344 (its /cache mount is used)")
		noSlabs    = fs.Bool("no-trace-store", false, "disable the compiled-trace slab store")
		noExpStore = fs.Bool("no-exp-store", false, "disable the experiment store (and GET /query)")
		quiet      = fs.Bool("q", false, "suppress operational log output")
	)
	fs.Parse(args)
	if *parallel < 0 {
		return fail("serve: -parallel must be >= 0 (got %d)", *parallel)
	}

	log := io.Writer(os.Stderr)
	if *quiet {
		log = io.Discard
	}

	dir := *cacheDir
	if dir == "" {
		var err error
		dir, err = experiments.DefaultCacheDir()
		if err != nil {
			return fail("serve: %v", err)
		}
	}

	// Tier composition, fastest first: memory LRU, local disk, optional
	// remote peer. One backend serves both the per-cell result cache and
	// the whole-job blob store (distinct key domains).
	disk, err := resultcache.NewDisk(resultcache.DiskConfig{Dir: dir})
	if err != nil {
		return fail("serve: %v", err)
	}
	tiers := []resultcache.Backend{resultcache.NewMemory(*memBytes), disk}
	if *remote != "" {
		base, err := remoteCacheURL(*remote)
		if err != nil {
			return fail("serve: %v", err)
		}
		r, err := resultcache.NewRemote(resultcache.RemoteConfig{BaseURL: base})
		if err != nil {
			return fail("serve: %v", err)
		}
		tiers = append(tiers, r)
	}
	backend := resultcache.NewTiered(tiers...)
	cache := experiments.NewResultCache(backend)
	defer cache.Close() // flushes write-back and closes every tier

	base := experiments.SweepConfig{
		Parallelism: *parallel,
		Cache:       cache,
	}
	defer openStores(&base, storeConfig{cacheDir: dir, noSlabs: *noSlabs, noExp: *noExpStore}, log)()

	srv := server.New(server.Config{
		Backend: backend,
		Base:    base,
		Workers: *workers,
		Log:     log,
	})

	l, err := net.Listen("tcp", *addr)
	if err != nil {
		return fail("serve: %v", err)
	}
	fmt.Fprintf(log, "rebase: serving on http://%s (workers=%d, cache=%s, tiers=%d)\n",
		l.Addr(), *workers, dir, len(tiers))

	// SIGINT/SIGTERM triggers the graceful path: stop accepting, finish
	// in-flight jobs, flush the write-back queue, then exit.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	select {
	case sig := <-sigc:
		fmt.Fprintf(log, "rebase: %v: draining\n", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			return fail("serve: shutdown: %v", err)
		}
		fmt.Fprintf(log, "rebase: drained, exiting\n")
		return 0
	case err := <-done:
		if err != nil {
			return fail("serve: %v", err)
		}
		return 0
	}
}

// remoteCacheURL resolves a -remote flag value to the peer's /cache
// mount: a bare daemon root gets "/cache" appended; an explicit path is
// kept as given.
func remoteCacheURL(raw string) (string, error) {
	u, err := url.Parse(raw)
	if err != nil {
		return "", fmt.Errorf("bad -remote URL %q: %v", raw, err)
	}
	if u.Path == "" || u.Path == "/" {
		u.Path = "/cache"
	}
	return strings.TrimSuffix(u.String(), "/"), nil
}
