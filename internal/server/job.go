package server

import "tracerebase/internal/report"

// JobSpec is the request body of POST /jobs: report.Spec, the one run
// request, which the batch CLI parses from its flags. A field absent or
// zero takes its default (report.Spec.Normalize), so {"exp":"fig1"} is a
// complete request. The package itself uses report.Spec; the alias stays
// for clients that still build a JobSpec.
type JobSpec = report.Spec
