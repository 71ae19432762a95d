package expstore

import "testing"

// FuzzParseQuery checks the query language on arbitrary input — the text a
// `rebase query` user or a `GET /query` client sends. ParseQuery must never
// panic, and a query it accepts must compile or fail with an error, never
// panic; a compiled query resolves every filter and group-by column and
// the metric. The seeds are the CI query smoke, the shapes of the
// benchmark's query pool, and a repeated reserved key.
func FuzzParseQuery(f *testing.F) {
	for _, src := range []string{
		"",
		"config=ipc1 group-by=prefetcher stat=count,mean",
		"category=srv metric=cycles group-by=variant stat=mean,p50",
		"variant=All_imps group-by=category,config stat=p90,max",
		"config=ipc1 prefetcher=none group-by=variant,category stat=mean,geomean",
		"trace=srv_3 metric=mispredicts group-by=config,variant stat=sum,min",
		"rob=352,512 ipc=1.5 stat=count",
		"key=00 group-by=rob",
		"metric=trace",
		"rob=",
		"metric=ipc metric=cycles stat=count",
	} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		q, err := ParseQuery(src)
		if err != nil {
			return
		}
		cq, err := compile(q)
		if err != nil {
			return
		}
		if len(cq.filters) != len(q.Filters) || len(cq.groups) != len(q.GroupBy) {
			t.Fatalf("%q compiled to %d filters and %d groups, parsed %d and %d",
				src, len(cq.filters), len(cq.groups), len(q.Filters), len(q.GroupBy))
		}
		if cq.metric.name != q.Metric {
			t.Fatalf("%q compiled metric %q, parsed %q", src, cq.metric.name, q.Metric)
		}
	})
}
