package report

import (
	"fmt"
	"testing"

	"tracerebase/internal/expstore"
	"tracerebase/internal/resultcache"
)

// TestQueryDefaultsToCurrentBuild pins the cross-build double count: two
// builds each append the same five cells (same identity, different content
// keys, as the key includes the build fingerprint). A default query counts
// one cell per trace, and group-by=build shows both builds.
func TestQueryDefaultsToCurrentBuild(t *testing.T) {
	store, err := expstore.Open(expstore.Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	builds := []string{resultcache.Fingerprint(), "vcs:0123456789abcdef"}
	for _, build := range builds {
		for i := 0; i < 5; i++ {
			trace := fmt.Sprintf("trace_%d", i)
			key := resultcache.NewHasher("query-test").Str(build).Str(trace).Sum()
			c := expstore.Cell{Trace: trace, Category: "srv", Variant: "All_imps", Config: "develop",
				Cores: 1, Build: build, Key: key, IPC: 1 + float64(i)/10}
			if err := store.Append(c); err != nil {
				t.Fatal(err)
			}
		}
	}
	query := func(src string) *expstore.Result {
		t.Helper()
		res, err := Query(store, src, false)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	res := query("variant=all group-by=trace stat=count")
	if len(res.Rows) != 5 {
		t.Fatalf("default query: %d rows, want 5", len(res.Rows))
	}
	for _, r := range res.Rows {
		if r.Count != 1 {
			t.Errorf("default query: trace %s counted %d cells, want 1", r.Group[0], r.Count)
		}
	}

	res = query("group-by=build stat=count")
	if len(res.Rows) != 2 {
		t.Fatalf("group-by=build: %d rows, want 2", len(res.Rows))
	}
	for _, r := range res.Rows {
		if r.Count != 5 {
			t.Errorf("group-by=build: build %s counted %d cells, want 5", r.Group[0], r.Count)
		}
	}

	res = query("build=" + builds[1] + " stat=count")
	if len(res.Rows) != 1 || res.Rows[0].Count != 5 {
		t.Errorf("build filter: rows %v, want one row of 5", res.Rows)
	}
}
