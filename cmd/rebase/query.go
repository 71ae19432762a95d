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
// string against the experiment store that sweeps populate, without
// running any simulation.
//
//	rebase query 'category=srv variant=all,none metric=ipc group-by=rob stat=p50,p99'
//	rebase query -json 'variant=all group-by=category stat=mean,p99'
//
// A query string is space-separated key=value tokens. `metric` picks the
// numeric column to aggregate (default ipc), `group-by` a comma-separated
// list of string/integer columns to group on, `stat` the aggregates
// (count, sum, mean, geomean, min, max, p50, p90, p95, p99); each of the
// three may appear once. Every other token filters a column against a
// comma-separated value set, and a cell must pass every filter. The store
// loads its blocks once and answers from the cells they hold, each content
// key once. Only cells written by this build count unless the query names
// the build column, e.g. `group-by=build` or `build=vcs:<revision>`.
func runQuery(args []string) int {
	fs := flag.NewFlagSet("rebase query", flag.ExitOnError)
	var (
		storeDir = fs.String("store-dir", "", "experiment store directory (default <cache dir>/exp)")
		jsonOut  = fs.Bool("json", false, "emit the result as JSON instead of a text table")
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

	res, err := report.Query(store, fs.Arg(0), false)
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
		// Suggest a sweep only when this build has recorded nothing.
		if all, err := report.Query(store, "stat=count", false); err == nil && len(all.Rows) == 0 {
			fmt.Fprintf(os.Stderr, "rebase: store %s holds no cell of this build; run a sweep first, e.g. rebase -exp all -step 3\n", dir)
		} else {
			fmt.Fprintln(os.Stderr, "rebase: no cell matches the filters")
		}
	}
	report.RenderQuery(os.Stdout, res)
	return 0
}
