package main

// metricDef is one entry of the metric catalogue. BENCHMARK.json lists the
// same names and units, which TestCatalogueMatchesBenchmarkJSON checks.
type metricDef struct{ Name, Unit string }

// endToEndMetrics are what a user of rebase sees, measured with tracing off.
// An operation is one rebase invocation for the CLI workloads and one HTTP
// request for service_mix.
var endToEndMetrics = []metricDef{
	{"p50_ms", "ms"},      // median latency of one operation
	{"ops_per_s", "1/s"},  // operations per second of the closed loop, per median operation or load segment
	{"peak_rss_mb", "MB"}, // highest peak RSS of the run's rebase processes (the daemon's for service_mix)
	{"setup_s", "s"},      // median time for rebase to start and open its stores (or the daemon to answer) over the workload's starting state
}

// layers are the program's modules as the traced pass attributes CPU to
// them: each internal package that forms a layer, and "runtime" for
// samples with no internal frame (GC workers, syscalls, net/http).
var layers = []string{"experiments", "synth", "core", "tracestore", "sim", "resultcache", "expstore", "report", "server", "runtime"}

// simStages are the parts of the simulator its CPU is split into: the
// pipeline stages of sim/cpu, the cycle loop around them, sampled-mode
// warming and checkpoints, the modelled memory hierarchy, predictors and
// prefetchers, and "unmapped" for simulator code no table names, so the
// shares always sum to 1.
var simStages = []string{"fetch", "bpu", "dispatch", "issue", "execute", "retire", "loop", "warm", "snap", "mem", "bpred", "iprefetch", "dprefetch", "unmapped"}

// perLayerMetrics are the traced pass's metrics. Every workload reports all
// of them; a count or share a workload does not exercise reads 0.
var perLayerMetrics = func() []metricDef {
	defs := []metricDef{
		{"experiments.sweep_s", "s"},
		{"experiments.table2_s", "s"},
		{"experiments.table3_s", "s"},
		{"experiments.sweep_busy_share", "ratio"},
		{"experiments.table2_busy_share", "ratio"},
		{"experiments.table3_busy_share", "ratio"},
		{"experiments.cells_simulated", "count"},
		{"experiments.sim_kips", "kinstr/s"},
		{"synth.generate_minstr_s", "Minstr/s"},
		{"core.convert_minstr_s", "Minstr/s"},
		{"core.converts", "count"},
		{"tracestore.hits", "count"},
		{"tracestore.misses", "count"},
		{"tracestore.bytes_written", "count"},
		{"tracestore.bytes_mapped", "count"},
		{"tracestore.persist_mb_s", "MB/s"},
		{"tracestore.map_gb_s", "GB/s"},
		{"sim.develop_kips", "kinstr/s"},
		{"sim.ipc1_kips", "kinstr/s"},
		{"sim.instructions", "count"},
		{"sim.cycles", "count"},
		{"sim.skipped_cycles", "count"},
		{"resultcache.get_us", "us"},
		{"resultcache.put_us", "us"},
		{"resultcache.hits", "count"},
		{"resultcache.misses", "count"},
		{"resultcache.bytes_read", "count"},
		{"resultcache.bytes_written", "count"},
		{"expstore.appends", "count"},
		{"expstore.cells_written", "count"},
		{"expstore.readback_ms", "ms"},
		{"expstore.query_us", "us"},
		{"expstore.query_bytes_read", "count"},
		{"expstore.blocks_pruned", "count"},
		{"report.render_ms", "ms"},
		{"server.job_p50_ms", "ms"},
		{"server.job_p99_ms", "ms"},
		{"server.query_p50_ms", "ms"},
		{"server.query_p99_ms", "ms"},
		{"server.ready_ms", "ms"},
		{"server.memory_hits", "count"},
		{"runtime.gc_share", "ratio"},
		{"runtime.idle_share", "ratio"},
		{"trace.unattributed_share", "ratio"},
		{"trace.overhead_pct", "%"},
	}
	for _, l := range layers {
		defs = append(defs, metricDef{l + ".cpu_share", "ratio"})
	}
	for _, s := range simStages {
		defs = append(defs, metricDef{"sim." + s + "_share", "ratio"})
	}
	return defs
}()
