package main

import (
	"flag"
	"fmt"
	"os"

	"tracerebase/internal/experiments"
	"tracerebase/internal/expstore"
	"tracerebase/internal/report"
)

// runQuery is the `rebase query` subcommand: execute a query-language
// string against the columnar experiment store that sweeps populate,
// without running any simulation.
//
//	rebase query 'category=srv variant=all,none metric=ipc group-by=rob stat=p50,p99'
//	rebase query -json 'variant=all group-by=category stat=mean,p99'
//
// A query string is space-separated key=value tokens. `metric` picks the
// numeric column to aggregate (default ipc), `group-by` a comma-separated
// list of string/integer columns to group on, `stat` the aggregates
// (count, sum, mean, geomean, min, max, p50, p90, p95, p99); every other
// token filters a column against a comma-separated value set. Blocks
// whose footer statistics cannot match the filters are pruned without
// reading their data, and only the referenced columns of the surviving
// blocks are materialized; -full-scan forces the brute-force path that
// decodes every block (identical rows, for verification and benchmarks).
// Only cells written by this build count unless the query names the build
// column, e.g. `group-by=build` or `build=vcs:<revision>`.
func runQuery(args []string) int {
	fs := flag.NewFlagSet("rebase query", flag.ExitOnError)
	var (
		storeDir = fs.String("store-dir", "", "experiment store directory (default <cache dir>/exp)")
		jsonOut  = fs.Bool("json", false, "emit the result as JSON instead of a text table")
		fullScan = fs.Bool("full-scan", false, "decode every block instead of pruning on footer stats (verification baseline)")
		quiet    = fs.Bool("q", false, "suppress corrupt/foreign-block warnings")
	)
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fail("query: exactly one query string expected, e.g. rebase query 'variant=all group-by=category stat=mean'")
	}

	dir := *storeDir
	if dir == "" {
		var err error
		dir, err = experiments.DefaultExpStoreDir()
		if err != nil {
			return fail("query: %v", err)
		}
	}
	warn := func(format string, a ...any) {
		if !*quiet {
			fmt.Fprintf(os.Stderr, "rebase: "+format+"\n", a...)
		}
	}
	store, err := expstore.Open(expstore.Config{Dir: dir, Warn: warn})
	if err != nil {
		return fail("query: %v", err)
	}
	defer store.Close()

	res, err := report.Query(store, fs.Arg(0), *fullScan)
	if err != nil {
		return fail("query: %v", err)
	}
	if *jsonOut {
		if err := report.WriteQueryJSON(os.Stdout, res); err != nil {
			return fail("query: %v", err)
		}
		return 0
	}
	if len(res.Rows) == 0 {
		fmt.Fprintf(os.Stderr, "rebase: no cells match (store %s holds %d blocks); run a sweep first, e.g. rebase -exp all -step 3\n",
			dir, store.Blocks())
	}
	report.RenderQuery(os.Stdout, res)
	return 0
}
