package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"

	"tracerebase/internal/report"
	"tracerebase/internal/server"
)

// runSubmit is the `rebase submit` subcommand: the daemon client. It
// posts a job, follows the NDJSON event stream, writes the assembled
// output to stdout (byte-identical to the batch CLI), and reports which
// tier served it on stderr. It takes exactly the batch CLI's request
// flags and rejects what the batch CLI rejects before it posts.
func runSubmit(args []string) int {
	fs := flag.NewFlagSet("rebase submit", flag.ExitOnError)
	spec := requestFlags(fs)
	var (
		baseURL = fs.String("url", "http://127.0.0.1:8344", "daemon base URL")
		status  = fs.Bool("status", false, "print the daemon status document and exit")
		quiet   = fs.Bool("q", false, "suppress progress output")
	)
	fs.Parse(args)

	client := &server.Client{BaseURL: *baseURL}
	if *status {
		st, err := client.Status()
		if err != nil {
			return fail("submit: %v", err)
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		enc.Encode(st)
		return 0
	}

	if err := checkSubmit(*spec); err != nil {
		return fail("submit: %v", err)
	}
	if !*quiet {
		client.OnEvent = func(ev server.Event) {
			switch ev.Type {
			case "started":
				fmt.Fprintf(os.Stderr, "job started\n")
			case "progress":
				fmt.Fprintf(os.Stderr, "\r%3d/%3d traces", ev.Done, ev.Total)
				if ev.Done == ev.Total {
					fmt.Fprintln(os.Stderr)
				}
			}
		}
	}
	res, err := client.Submit(*spec)
	if err != nil {
		return fail("submit: %v", err)
	}
	os.Stdout.Write(res.Output)
	if !*quiet {
		fmt.Fprintf(os.Stderr, "served: %s in %.6fs\n", res.Served, res.ServerSeconds)
	}
	return 0
}

// checkSubmit rejects what `rebase` rejects, and each value a POST /jobs
// body cannot carry: the daemon reads a zero warm-up, a zero sampled
// warm-up and an empty experiment list as absent, so as the default, and
// would run a different request than `rebase` with the same flags.
func checkSubmit(s report.Spec) error {
	if err := s.ValidateFlags(); err != nil {
		return err
	}
	d := report.Defaults()
	switch {
	case s.Warmup == 0:
		return fmt.Errorf("-warmup 0 cannot be submitted: the daemon reads it as the default %d", d.Warmup)
	case s.Sample && s.SampleWarm == 0:
		return fmt.Errorf("-sample-warm 0 cannot be submitted: the daemon reads it as the default %d", d.SampleWarm)
	case s.Exp == "":
		return fmt.Errorf("-exp \"\" cannot be submitted: the daemon reads it as the default %q", d.Exp)
	}
	return nil
}
