package report

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"strings"

	"tracerebase/internal/expstore"
	"tracerebase/internal/resultcache"
)

// variantAliases maps CLI-friendly spellings onto the artifact-style
// variant labels the sweep records. The expstore itself knows nothing of
// them: aliases are a presentation concern, expanded before parsing.
var variantAliases = map[string]string{
	"all":    "All_imps",
	"none":   "No_imp",
	"memory": "Memory_imps",
	"branch": "Branch_imps",
}

// expandAliases rewrites variant=... filter values through variantAliases,
// leaving every other token untouched.
func expandAliases(src string) string {
	toks := strings.Fields(src)
	for i, tok := range toks {
		val, ok := strings.CutPrefix(tok, "variant=")
		if !ok {
			continue
		}
		vals := strings.Split(val, ",")
		for j, v := range vals {
			if full, ok := variantAliases[v]; ok {
				vals[j] = full
			}
		}
		toks[i] = "variant=" + strings.Join(vals, ",")
	}
	return strings.Join(toks, " ")
}

// Query parses src (with variant aliases expanded) and executes it against
// the experiment store. fullScan is ignored: the store has one query path.
// Unless src names the build column in a filter or in group-by, only
// cells of the running build are counted: cell keys include the build
// fingerprint, so cells of two builds never dedup against each other and
// would otherwise be counted twice.
func Query(store *expstore.Store, src string, fullScan bool) (*expstore.Result, error) {
	q, err := expstore.ParseQuery(expandAliases(src))
	if err != nil {
		return nil, err
	}
	namesBuild := slices.Contains(q.GroupBy, "build")
	for _, f := range q.Filters {
		namesBuild = namesBuild || f.Col == "build"
	}
	if !namesBuild {
		q.Filters = append(q.Filters, expstore.Filter{Col: "build", Vals: []string{resultcache.Fingerprint()}})
	}
	return store.Query(q)
}

// RenderQuery prints a query result as an aligned text table with a
// trailer counting rows and cells.
func RenderQuery(w io.Writer, res *expstore.Result) {
	headers := append(append([]string{}, res.GroupBy...), "n")
	for _, st := range res.StatNames {
		headers = append(headers, st+"("+res.Metric+")")
	}
	widths := make([]int, len(headers))
	rows := make([][]string, 0, len(res.Rows))
	for _, r := range res.Rows {
		cells := append(append([]string{}, r.Group...), fmt.Sprintf("%d", r.Count))
		for _, v := range r.Values {
			cells = append(cells, fmt.Sprintf("%.6g", v))
		}
		rows = append(rows, cells)
	}
	for i, h := range headers {
		widths[i] = len(h)
		for _, cells := range rows {
			if len(cells[i]) > widths[i] {
				widths[i] = len(cells[i])
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[i], c)
		}
		fmt.Fprintln(w, "  "+strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(headers)
	for _, cells := range rows {
		line(cells)
	}
	st := res.Stats
	fmt.Fprintf(w, "  -- %d rows; cells %d scanned, %d matched\n", len(res.Rows), st.CellsScanned, st.CellsMatched)
}

// queryJSON is the wire form of a query result, shared by `rebase query
// -json` and the daemon's GET /query.
type queryJSON struct {
	Metric    string              `json:"metric"`
	GroupBy   []string            `json:"group_by,omitempty"`
	StatNames []string            `json:"stats"`
	Rows      []queryRowJSON      `json:"rows"`
	Scan      expstore.QueryStats `json:"scan"`
}

type queryRowJSON struct {
	Group  []string  `json:"group,omitempty"`
	Count  int       `json:"n"`
	Values []float64 `json:"values"`
}

// WriteQueryJSON emits a query result as one JSON document.
func WriteQueryJSON(w io.Writer, res *expstore.Result) error {
	doc := queryJSON{
		Metric:    res.Metric,
		GroupBy:   res.GroupBy,
		StatNames: res.StatNames,
		Rows:      make([]queryRowJSON, 0, len(res.Rows)),
		Scan:      res.Stats,
	}
	for _, r := range res.Rows {
		doc.Rows = append(doc.Rows, queryRowJSON{Group: r.Group, Count: r.Count, Values: r.Values})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}
