package expstore

import (
	"encoding/hex"
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// The query language is space-separated key=value tokens:
//
//	category=srv variant=all,none metric=ipc group-by=rob stat=p50,p99
//
// Three keys are reserved and may each appear once: metric names the
// numeric column to aggregate (default ipc), group-by a comma list of
// identity columns to group rows by, and stat a comma list of aggregates
// (default mean). Every other token is a filter: column=value[,value...]
// matches cells whose column equals any listed value, and a cell must
// match every filter, including several on one column.

// Filter matches a column against a disjunction of literal values.
type Filter struct {
	Col  string
	Vals []string
}

// Query is a parsed query.
type Query struct {
	Filters []Filter
	Metric  string
	GroupBy []string
	Stats   []string
}

// statNames are the supported aggregates, in canonical display order.
var statNames = []string{"count", "sum", "mean", "geomean", "min", "max", "p50", "p90", "p95", "p99"}

// ParseQuery parses the query language, validating column and stat names
// against the schema.
func ParseQuery(src string) (Query, error) {
	q := Query{Metric: "ipc", Stats: []string{"mean"}}
	reserved := make(map[string]bool, 3)
	for _, tok := range strings.Fields(src) {
		k, v, ok := strings.Cut(tok, "=")
		if !ok || k == "" || v == "" {
			return q, fmt.Errorf("expstore: token %q is not key=value", tok)
		}
		if k == "metric" || k == "group-by" || k == "stat" {
			if reserved[k] {
				return q, fmt.Errorf("expstore: token %q repeats the %s key", tok, k)
			}
			reserved[k] = true
		}
		var list []string
		if k == "group-by" || k == "stat" {
			list = strings.Split(v, ",")
			for i, name := range list {
				if slices.Contains(list[:i], name) {
					return q, fmt.Errorf("expstore: token %q names %q twice", tok, name)
				}
			}
		}
		switch k {
		case "metric":
			if !NumericColumn(v) {
				return q, fmt.Errorf("expstore: metric %q is not a numeric column", v)
			}
			q.Metric = v
		case "group-by":
			for _, col := range list {
				i, ok := colIndex[col]
				if !ok {
					return q, fmt.Errorf("expstore: unknown group-by column %q", col)
				}
				if columns[i].kind != kindString && columns[i].kind != kindUint {
					return q, fmt.Errorf("expstore: cannot group by %s column %q", kindName(columns[i].kind), col)
				}
				q.GroupBy = append(q.GroupBy, col)
			}
		case "stat":
			for _, s := range list {
				if !slices.Contains(statNames, s) {
					return q, fmt.Errorf("expstore: unknown stat %q (have %s)", s, strings.Join(statNames, ", "))
				}
			}
			q.Stats = list
		default:
			if _, ok := colIndex[k]; !ok {
				return q, fmt.Errorf("expstore: unknown column %q", k)
			}
			q.Filters = append(q.Filters, Filter{Col: k, Vals: strings.Split(v, ",")})
		}
	}
	return q, nil
}

func kindName(k colKind) string {
	switch k {
	case kindString:
		return "string"
	case kindUint:
		return "uint"
	case kindFloat:
		return "float"
	case kindKey:
		return "key"
	}
	return "unknown"
}

// QueryStats reports how much work a query did.
type QueryStats struct {
	// CellsScanned cells were evaluated; CellsMatched passed the filters.
	CellsScanned int `json:"cells_scanned"`
	CellsMatched int `json:"cells_matched"`
	// BytesRead is the block bytes this query had to load: the whole
	// store for the first read of a process, 0 after.
	BytesRead int64 `json:"bytes_read"`
	// BlocksPruned is always 0: no block is skipped.
	BlocksPruned int `json:"blocks_pruned"`
}

// Row is one output group.
type Row struct {
	// Group holds the group-by column values, parallel to Query.GroupBy.
	Group []string
	// Count is the number of cells aggregated; Values parallels
	// Result.StatNames.
	Count  int
	Values []float64
}

// Result is a query's output.
type Result struct {
	Metric    string
	GroupBy   []string
	StatNames []string
	Rows      []Row
	Stats     QueryStats
}

// compiledFilter is a Filter resolved against the schema with values
// parsed per the column's kind; a cell matches when its value is in the
// set of its kind.
type compiledFilter struct {
	col  *column
	strs []string
	u64s []uint64
	f64s []float64
	keys []Key
}

func (f *compiledFilter) match(c *Cell) bool {
	switch f.col.kind {
	case kindString:
		return slices.Contains(f.strs, *f.col.str(c))
	case kindUint:
		return slices.Contains(f.u64s, *f.col.u64(c))
	case kindFloat:
		return slices.Contains(f.f64s, *f.col.f64(c))
	}
	return slices.Contains(f.keys, *f.col.ckey(c))
}

type compiledQuery struct {
	filters []compiledFilter
	metric  *column
	groups  []*column
}

func compile(q Query) (compiledQuery, error) {
	cq := compiledQuery{metric: &columns[colIndex[q.Metric]]}
	for _, f := range q.Filters {
		cf := compiledFilter{col: &columns[colIndex[f.Col]]}
		for _, v := range f.Vals {
			switch cf.col.kind {
			case kindString:
				cf.strs = append(cf.strs, v)
			case kindUint:
				u, err := strconv.ParseUint(v, 10, 64)
				if err != nil {
					return cq, fmt.Errorf("expstore: %s=%s: want an unsigned integer", f.Col, v)
				}
				cf.u64s = append(cf.u64s, u)
			case kindFloat:
				x, err := strconv.ParseFloat(v, 64)
				if err != nil {
					return cq, fmt.Errorf("expstore: %s=%s: want a float", f.Col, v)
				}
				cf.f64s = append(cf.f64s, x)
			case kindKey:
				raw, err := hex.DecodeString(v)
				if err != nil || len(raw) != KeyBytes {
					return cq, fmt.Errorf("expstore: %s=%s: want %d hex bytes", f.Col, v, KeyBytes)
				}
				cf.keys = append(cf.keys, Key(raw))
			}
		}
		cq.filters = append(cq.filters, cf)
	}
	for _, g := range q.GroupBy {
		cq.groups = append(cq.groups, &columns[colIndex[g]])
	}
	return cq, nil
}

// Query runs q over the row set: filter, group, aggregate.
func (s *Store) Query(q Query) (*Result, error) {
	cq, err := compile(q)
	if err != nil {
		return nil, err
	}
	cells, read := s.snapshot()
	res := &Result{Metric: q.Metric, GroupBy: q.GroupBy, StatNames: q.Stats, Stats: QueryStats{CellsScanned: len(cells), BytesRead: read}}
	type groupAgg struct {
		group []string
		vals  []float64
	}
	groups := make(map[string]*groupAgg)
	var order []*groupAgg
	for i := range cells {
		c := &cells[i]
		if !cq.match(c) {
			continue
		}
		res.Stats.CellsMatched++
		group := make([]string, len(cq.groups))
		for gi, col := range cq.groups {
			if col.kind == kindString {
				group[gi] = *col.str(c)
			} else {
				group[gi] = strconv.FormatUint(*col.u64(c), 10)
			}
		}
		gk := strings.Join(group, "\x00")
		g := groups[gk]
		if g == nil {
			g = &groupAgg{group: group}
			groups[gk] = g
			order = append(order, g)
		}
		if cq.metric.kind == kindFloat {
			g.vals = append(g.vals, *cq.metric.f64(c))
		} else {
			g.vals = append(g.vals, float64(*cq.metric.u64(c)))
		}
	}
	// Rows sort by group tuple: uint columns numerically, string columns
	// lexicographically.
	sort.Slice(order, func(i, j int) bool {
		a, b := order[i].group, order[j].group
		for k := range a {
			if a[k] == b[k] {
				continue
			}
			if cq.groups[k].kind == kindUint {
				ua, _ := strconv.ParseUint(a[k], 10, 64)
				ub, _ := strconv.ParseUint(b[k], 10, 64)
				return ua < ub
			}
			return a[k] < b[k]
		}
		return false
	})
	for _, g := range order {
		sort.Float64s(g.vals)
		row := Row{Group: g.group, Count: len(g.vals)}
		for _, st := range q.Stats {
			row.Values = append(row.Values, aggregate(st, g.vals))
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

func (cq *compiledQuery) match(c *Cell) bool {
	for i := range cq.filters {
		if !cq.filters[i].match(c) {
			return false
		}
	}
	return true
}

// aggregate computes one stat over ascending-sorted values.
func aggregate(stat string, sorted []float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	switch stat {
	case "count":
		return float64(n)
	case "sum", "mean":
		s := 0.0
		for _, v := range sorted {
			s += v
		}
		if stat == "mean" {
			return s / float64(n)
		}
		return s
	case "geomean":
		s := 0.0
		for _, v := range sorted {
			if v <= 0 {
				return 0
			}
			s += math.Log(v)
		}
		return math.Exp(s / float64(n))
	case "min":
		return sorted[0]
	case "max":
		return sorted[n-1]
	case "p50", "p90", "p95", "p99":
		p, _ := strconv.Atoi(stat[1:])
		// Nearest-rank percentile.
		idx := int(math.Ceil(float64(p)/100*float64(n))) - 1
		if idx < 0 {
			idx = 0
		}
		return sorted[idx]
	}
	return math.NaN()
}
