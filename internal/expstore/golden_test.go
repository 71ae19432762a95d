package expstore

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"tracerebase/internal/resultcache"
)

// goldenQueries are the queries whose rows testdata/query_rows.json pins:
// the three of BENCH_10, the examples of EXPERIMENTS.md "Query workflow"
// (variant aliases expanded, as report.Query expands them), every
// FuzzParseQuery seed that parses, one query of each shape of the
// benchmark's query pool, and the two counts. A query the engine rejects
// is recorded with its error.
var goldenQueries = []string{
	// BENCH_10.json.
	"trace=compute_int_0 variant=All_imps stat=mean",
	"category=srv variant=All_imps,No_imp metric=ipc group-by=rob stat=p50,p99",
	"config=ipc1 group-by=prefetcher stat=count,mean",
	// EXPERIMENTS.md (the first also opens the section).
	"group-by=category,variant stat=geomean",
	"category=srv variant=Branch_imps,All_imps metric=mispredicts group-by=variant stat=mean,p99",
	// FuzzParseQuery seeds that parse.
	"",
	"category=srv metric=cycles group-by=variant stat=mean,p50",
	"variant=All_imps group-by=category,config stat=p90,max",
	"config=ipc1 prefetcher=none group-by=variant,category stat=mean,geomean",
	"trace=srv_3 metric=mispredicts group-by=config,variant stat=sum,min",
	"rob=352,512 ipc=1.5 stat=count",
	"key=00 group-by=rob",
	// The benchmark's query pool, one of each shape.
	"category=crypto metric=l1d_misses group-by=variant stat=mean,p50",
	"variant=BP_only group-by=category,config stat=p90,max",
	"config=ipc1 prefetcher=next2 group-by=variant,category stat=mean,geomean",
	"trace=compute_fp_1 metric=l1i_misses group-by=config,variant stat=sum,min",
	// Counts.
	"stat=count",
	"group-by=build stat=count",
}

// goldenCells is the fixture the golden rows are computed over: a
// deterministic matrix of synthetic cells (no simulator involved) across
// two builds, every numeric value a simple function of the cell's index.
func goldenCells() []Cell {
	cats := []string{"compute_int", "compute_fp", "crypto", "srv"}
	variants := []string{"No_imp", "All_imps", "Branch_imps", "Memory_imps", "BP_only"}
	prefs := []string{"none", "next2", "mana"}
	robs := []uint64{224, 352, 512}
	var cells []Cell
	for i := 0; i < 96; i++ {
		c := Cell{
			Category:     cats[i%4],
			Variant:      variants[(i/4)%5],
			Config:       []string{"develop", "ipc1"}[(i/20)%2],
			Prefetcher:   prefs[(i/3)%3],
			ROB:          robs[(i/7)%3],
			Cores:        1,
			Instructions: 20000,
			Warmup:       5000,
			Build:        []string{"build-a", "build-b"}[(i/48)%2],
			IPC:          float64(1+i%13) / 8,
		}
		c.Trace = fmt.Sprintf("%s_%d", c.Category, (i/4)%4)
		if c.Config == "develop" {
			c.Prefetcher = "none"
		}
		c.Sim.Instructions = c.Instructions
		c.Sim.Cycles = uint64(float64(c.Instructions) / c.IPC)
		c.Sim.Branches = 3000 + uint64(i*17)
		c.Sim.Mispredicts = uint64(40 + (i*37)%211)
		c.Sim.L1I.Misses = uint64(5 + (i*53)%97)
		c.Sim.L1D.Misses = uint64(11 + (i*29)%151)
		c.Sim.SampleIPCMean = c.IPC * 1.01
		c.Conv.In = c.Instructions
		c.Conv.Out = c.Instructions + uint64(i%5)
		c.Key = resultcache.NewHasher("expstore-golden").U64(uint64(i)).Sum()
		cells = append(cells, c)
	}
	return cells
}

// writeGoldenStore fills dir with the fixture as two processes racing
// would: both open the empty directory and take their first cell before
// either flushes, so each writes the sixteen cells they share, and the
// store holds those keys twice, in blocks of both writers.
func writeGoldenStore(t *testing.T, dir string) {
	t.Helper()
	cells := goldenCells()
	a, err := Open(Config{Dir: dir, BlockCells: 8})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Open(Config{Dir: dir, BlockCells: 8})
	if err != nil {
		t.Fatal(err)
	}
	first, second := cells[:56], cells[40:]
	if err := a.Append(first[0]); err != nil {
		t.Fatal(err)
	}
	if err := b.Append(second[0]); err != nil {
		t.Fatal(err)
	}
	for _, c := range first[1:] {
		if err := a.Append(c); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range second[1:] {
		if err := b.Append(c); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
}

// goldenAnswer is one query's recorded answer: its rows, or its error.
type goldenAnswer struct {
	Query   string      `json:"query"`
	Error   string      `json:"error,omitempty"`
	Metric  string      `json:"metric,omitempty"`
	GroupBy []string    `json:"group_by,omitempty"`
	Stats   []string    `json:"stats,omitempty"`
	Rows    []goldenRow `json:"rows,omitempty"`
}

type goldenRow struct {
	Group  []string  `json:"group,omitempty"`
	Count  int       `json:"n"`
	Values []float64 `json:"values"`
}

// goldenRows runs every golden query over a freshly opened fixture store
// and returns the indented JSON of the answers.
func goldenRows(t *testing.T) []byte {
	t.Helper()
	dir := t.TempDir()
	writeGoldenStore(t, dir)
	s, err := Open(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var out []goldenAnswer
	for _, src := range goldenQueries {
		g := goldenAnswer{Query: src}
		q, err := ParseQuery(src)
		var res *Result
		if err == nil {
			res, err = s.Query(q)
		}
		if err != nil {
			g.Error = err.Error()
			out = append(out, g)
			continue
		}
		g.Metric, g.GroupBy, g.Stats = res.Metric, res.GroupBy, res.StatNames
		for _, r := range res.Rows {
			g.Rows = append(g.Rows, goldenRow{Group: r.Group, Count: r.Count, Values: r.Values})
		}
		out = append(out, g)
	}
	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(data, '\n')
}

// TestGoldenQueryRows holds the query engine to the rows recorded in
// testdata/query_rows.json, byte for byte.
func TestGoldenQueryRows(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "query_rows.json"))
	if err != nil {
		t.Fatal(err)
	}
	if got := goldenRows(t); !bytes.Equal(got, want) {
		t.Fatalf("query rows differ from testdata/query_rows.json:\n%s", got)
	}
}
