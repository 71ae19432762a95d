package expstore

import (
	"bytes"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// The query language is space-separated key=value tokens:
//
//	category=srv variant=all,none metric=ipc group-by=rob stat=p50,p99
//
// Three keys are reserved: metric names the numeric column to aggregate
// (default ipc), group-by a comma list of identity columns to group rows
// by, and stat a comma list of aggregates (default mean). Every other
// token is a filter: column=value[,value...] matches cells whose column
// equals any listed value. Filters prune whole blocks from footer
// statistics before any column data is read.

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
	statSet := make(map[string]bool, len(statNames))
	for _, s := range statNames {
		statSet[s] = true
	}
	for _, tok := range strings.Fields(src) {
		k, v, ok := strings.Cut(tok, "=")
		if !ok || k == "" || v == "" {
			return q, fmt.Errorf("expstore: token %q is not key=value", tok)
		}
		switch k {
		case "metric":
			if !NumericColumn(v) {
				return q, fmt.Errorf("expstore: metric %q is not a numeric column", v)
			}
			q.Metric = v
		case "group-by":
			for _, col := range strings.Split(v, ",") {
				i, ok := colIndex[col]
				if !ok {
					return q, fmt.Errorf("expstore: unknown group-by column %q", col)
				}
				if columns[i].kind != kindDict && columns[i].kind != kindUint {
					return q, fmt.Errorf("expstore: cannot group by %s column %q", kindName(columns[i].kind), col)
				}
				q.GroupBy = append(q.GroupBy, col)
			}
		case "stat":
			q.Stats = nil
			for _, s := range strings.Split(v, ",") {
				if !statSet[s] {
					return q, fmt.Errorf("expstore: unknown stat %q (have %s)", s, strings.Join(statNames, ", "))
				}
				q.Stats = append(q.Stats, s)
			}
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
	case kindDict:
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

// QueryStats reports how much work a query did — the pruning and byte-read
// counters the bench harness and CI smoke test assert on.
type QueryStats struct {
	// BlocksTotal blocks were considered; BlocksPruned were rejected on
	// footer statistics alone; BlocksScanned had columns materialized.
	BlocksTotal   int `json:"blocks_total"`
	BlocksPruned  int `json:"blocks_pruned"`
	BlocksScanned int `json:"blocks_scanned"`
	// BytesTotal is the summed size of all considered block files;
	// BytesRead counts the bytes actually parsed or checksummed: the
	// CRC-covered header prefix and the footer of every considered block
	// (the price of deciding), plus the checked data regions of each
	// materialized column in unpruned blocks. A full scan parses every
	// column of every block. Alignment padding is parsed by neither path
	// and counted for neither.
	BytesTotal int64 `json:"bytes_total"`
	BytesRead  int64 `json:"bytes_read"`
	// ColumnsRead is the number of distinct columns materialized per
	// scanned block (filters ∪ group-by ∪ metric, plus the key column
	// when the scanned set is not provably duplicate-free).
	ColumnsRead int `json:"columns_read"`
	// CellsScanned cells were evaluated; CellsMatched passed the filters;
	// DupDropped of those were duplicate content keys (kept-first).
	CellsScanned int `json:"cells_scanned"`
	CellsMatched int `json:"cells_matched"`
	DupDropped   int `json:"dup_dropped"`
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
// parsed per the column's kind.
type compiledFilter struct {
	col  int
	strs map[string]bool
	u64s []uint64
	f64s []float64
	keys []Key
}

type compiledQuery struct {
	q       Query
	filters []compiledFilter
	metric  int
	groups  []int
	need    []int // distinct column indices to materialize, ascending
}

func compile(q Query) (compiledQuery, error) {
	cq := compiledQuery{q: q, metric: colIndex[q.Metric]}
	need := map[int]bool{cq.metric: true}
	for _, f := range q.Filters {
		ci := colIndex[f.Col]
		cf := compiledFilter{col: ci}
		switch columns[ci].kind {
		case kindDict:
			cf.strs = make(map[string]bool, len(f.Vals))
			for _, v := range f.Vals {
				cf.strs[v] = true
			}
		case kindUint:
			for _, v := range f.Vals {
				u, err := strconv.ParseUint(v, 10, 64)
				if err != nil {
					return cq, fmt.Errorf("expstore: %s=%s: want an unsigned integer", f.Col, v)
				}
				cf.u64s = append(cf.u64s, u)
			}
		case kindFloat:
			for _, v := range f.Vals {
				x, err := strconv.ParseFloat(v, 64)
				if err != nil {
					return cq, fmt.Errorf("expstore: %s=%s: want a float", f.Col, v)
				}
				cf.f64s = append(cf.f64s, x)
			}
		case kindKey:
			for _, v := range f.Vals {
				raw, err := hex.DecodeString(v)
				if err != nil || len(raw) != KeyBytes {
					return cq, fmt.Errorf("expstore: %s=%s: want %d hex bytes", f.Col, v, KeyBytes)
				}
				var k Key
				copy(k[:], raw)
				cf.keys = append(cf.keys, k)
			}
		}
		cq.filters = append(cq.filters, cf)
		need[ci] = true
	}
	for _, g := range q.GroupBy {
		cq.groups = append(cq.groups, colIndex[g])
		need[colIndex[g]] = true
	}
	for ci := range need {
		cq.need = append(cq.need, ci)
	}
	sort.Ints(cq.need)
	return cq, nil
}

// prune reports whether footer statistics alone prove no cell in the block
// can match every filter.
func (cq *compiledQuery) prune(metas []colMeta) bool {
	for fi := range cq.filters {
		f := &cq.filters[fi]
		m := &metas[f.col]
		possible := false
		switch columns[f.col].kind {
		case kindDict:
			for _, s := range m.dict {
				if f.strs[s] {
					possible = true
					break
				}
			}
		case kindUint:
			for _, v := range f.u64s {
				if v >= m.minU && v <= m.maxU {
					possible = true
					break
				}
			}
		case kindFloat:
			mn, mx := math.Float64frombits(m.minU), math.Float64frombits(m.maxU)
			for _, v := range f.f64s {
				if v >= mn && v <= mx {
					possible = true
					break
				}
			}
		case kindKey:
			for _, k := range f.keys {
				if bytes.Compare(k[:], m.minK[:]) >= 0 && bytes.Compare(k[:], m.maxK[:]) <= 0 {
					possible = true
					break
				}
			}
		}
		if !possible {
			return true
		}
	}
	return false
}

// collector aggregates matching cells into grouped stat rows. Both the
// pruned column path and the brute-force full scan feed the same
// collector, which is what makes their results comparable byte-for-byte.
type collector struct {
	cq *compiledQuery
	// dedup engages the keep-first duplicate filter. The pruned path turns
	// it off when writer lineage proves the scanned set duplicate-free,
	// which is what lets it skip materializing the key column.
	dedup  bool
	seen   map[Key]bool
	groups map[string]*groupAgg
	order  []string
	stats  QueryStats
}

type groupAgg struct {
	group []string
	vals  []float64
}

func newCollector(cq *compiledQuery) *collector {
	return &collector{cq: cq, seen: make(map[Key]bool), groups: make(map[string]*groupAgg)}
}

// add feeds one matching cell. Duplicate content keys — crash leftovers or
// concurrent writers — are kept-first; the engine is deterministic, so
// duplicates carry identical values and the choice cannot change results.
func (c *collector) add(key Key, group []string, v float64) {
	c.stats.CellsMatched++
	if c.dedup {
		if c.seen[key] {
			c.stats.DupDropped++
			return
		}
		c.seen[key] = true
	}
	gk := strings.Join(group, "\x00")
	g := c.groups[gk]
	if g == nil {
		g = &groupAgg{group: group}
		c.groups[gk] = g
		c.order = append(c.order, gk)
	}
	g.vals = append(g.vals, v)
}

func (c *collector) result() *Result {
	res := &Result{
		Metric:    c.cq.q.Metric,
		GroupBy:   c.cq.q.GroupBy,
		StatNames: c.cq.q.Stats,
		Stats:     c.stats,
	}
	// Sort rows by group tuple: uint columns numerically, dict columns
	// lexicographically.
	sort.Slice(c.order, func(i, j int) bool {
		a, b := c.groups[c.order[i]].group, c.groups[c.order[j]].group
		for k := range a {
			if a[k] == b[k] {
				continue
			}
			if columns[c.cq.groups[k]].kind == kindUint {
				ua, _ := strconv.ParseUint(a[k], 10, 64)
				ub, _ := strconv.ParseUint(b[k], 10, 64)
				return ua < ub
			}
			return a[k] < b[k]
		}
		return false
	})
	for _, gk := range c.order {
		g := c.groups[gk]
		sort.Float64s(g.vals)
		row := Row{Group: g.group, Count: len(g.vals)}
		for _, st := range c.cq.q.Stats {
			row.Values = append(row.Values, aggregate(st, g.vals))
		}
		res.Rows = append(res.Rows, row)
	}
	return res
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

// matchCell evaluates the compiled filters against a fully decoded cell —
// the brute-force path.
func (cq *compiledQuery) matchCell(cell *Cell) bool {
	for fi := range cq.filters {
		f := &cq.filters[fi]
		c := &columns[f.col]
		ok := false
		switch c.kind {
		case kindDict:
			ok = f.strs[*c.str(cell)]
		case kindUint:
			v := *c.u64(cell)
			for _, u := range f.u64s {
				if u == v {
					ok = true
					break
				}
			}
		case kindFloat:
			v := *c.f64(cell)
			for _, x := range f.f64s {
				if x == v {
					ok = true
					break
				}
			}
		case kindKey:
			v := *c.ckey(cell)
			for _, k := range f.keys {
				if k == v {
					ok = true
					break
				}
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// cellGroup renders a decoded cell's group-by values.
func (cq *compiledQuery) cellGroup(cell *Cell) []string {
	group := make([]string, len(cq.groups))
	for i, ci := range cq.groups {
		c := &columns[ci]
		if c.kind == kindDict {
			group[i] = *c.str(cell)
		} else {
			group[i] = strconv.FormatUint(*c.u64(cell), 10)
		}
	}
	return group
}

func (cq *compiledQuery) cellMetric(cell *Cell) float64 {
	c := &columns[cq.metric]
	if c.kind == kindFloat {
		return *c.f64(cell)
	}
	return float64(*c.u64(cell))
}

// dupSuspect reports whether two scanned blocks could share a content key.
// Writer lineage proves most pairs disjoint: blocks of one run are deduped
// by the writer's seen-set, and a run loads every block below its baseSeq
// into that set before appending. Overlapping source-sequence ranges mean
// a compaction output coexists with its crash-leftover inputs. The
// analysis assumes blocks arrive via the writer protocol (flush, compact,
// link-into-place) — hand-copied block files are outside it.
func dupSuspect(a, b *blockRef) bool {
	alo, ahi := a.srcRange()
	blo, bhi := b.srcRange()
	if ahi >= blo && bhi >= alo {
		return true
	}
	if a.bm.runID == b.bm.runID && a.bm.runID != 0 {
		return false
	}
	// Different (or unknown) writers: disjoint only if one run provably
	// started after the other's blocks were all on disk.
	return ahi >= b.bm.baseSeq && bhi >= a.bm.baseSeq
}

// scanNeedsDedup reports whether the scanned set could contain duplicate
// keys — from a block that itself holds duplicates, or from a pair of
// blocks whose lineage cannot prove them disjoint.
func scanNeedsDedup(scan []*blockRef) bool {
	for i, a := range scan {
		if a.bm.mayDup {
			return true
		}
		for _, b := range scan[i+1:] {
			if dupSuspect(a, b) {
				return true
			}
		}
	}
	return false
}

// Query executes q with block pruning and column projection: blocks whose
// footer statistics exclude every filter value are skipped without reading
// any column data, and scanned blocks materialize only the referenced
// columns. The 32-byte key column is materialized only when the scanned
// set is not provably duplicate-free (or a filter names it).
func (s *Store) Query(q Query) (*Result, error) {
	if err := s.Flush(); err != nil {
		return nil, err
	}
	cq, err := compile(q)
	if err != nil {
		return nil, err
	}
	col := newCollector(&cq)
	var scan []*blockRef
	for _, ref := range s.snapshot() {
		r, err := s.acquire(ref)
		if err != nil {
			continue // corrupt blocks were dropped; foreign ones skipped
		}
		col.stats.BlocksTotal++
		col.stats.BytesTotal += ref.size
		// Deciding costs the checked header prefix and the footer.
		col.stats.BytesRead += blockCheckedLen + r.h.footerLen
		if cq.prune(r.metas) {
			col.stats.BlocksPruned++
			continue
		}
		scan = append(scan, r)
	}
	keyCol := colIndex["key"]
	col.dedup = scanNeedsDedup(scan)
	need := cq.need
	if col.dedup {
		hasKey := false
		for _, ci := range need {
			hasKey = hasKey || ci == keyCol
		}
		if !hasKey {
			need = append(append([]int{}, need...), keyCol)
			sort.Ints(need)
		}
	}
	col.stats.ColumnsRead = len(need)
	for _, r := range scan {
		cols, err := s.materialize(r, need)
		if err != nil {
			continue // dropped as corrupt mid-query; its cells reconvert
		}
		col.stats.BlocksScanned++
		for _, ci := range need {
			col.stats.BytesRead += r.metas[ci].length
		}
		var keys []Key
		if kd := cols[keyCol]; kd != nil {
			keys = kd.keys
		}
		for i := 0; i < r.h.cells; i++ {
			col.stats.CellsScanned++
			if !cq.match(cols, r.metas, i) {
				continue
			}
			group := make([]string, len(cq.groups))
			for gi, ci := range cq.groups {
				group[gi] = cols[ci].render(&r.metas[ci], i)
			}
			var key Key
			if keys != nil {
				key = keys[i]
			}
			col.add(key, group, cols[cq.metric].metric(i))
		}
	}
	return col.result(), nil
}

// colData is one materialized column, in whichever representation its kind
// decodes to.
type colData struct {
	idx  []uint32
	u64s []uint64
	f64s []float64
	keys []Key
}

func (d *colData) render(m *colMeta, i int) string {
	if d.idx != nil {
		return m.dict[d.idx[i]]
	}
	return strconv.FormatUint(d.u64s[i], 10)
}

func (d *colData) metric(i int) float64 {
	if d.f64s != nil {
		return d.f64s[i]
	}
	return float64(d.u64s[i])
}

// materialize decodes the requested columns of a mapped block; any column
// checksum failure condemns the whole block (removed, counted, warned).
func (s *Store) materialize(r *blockRef, need []int) (map[int]*colData, error) {
	out := make(map[int]*colData, len(need))
	for _, ci := range need {
		m := &r.metas[ci]
		d := &colData{}
		var err error
		switch columns[ci].kind {
		case kindDict:
			d.idx, err = materializeDict(r.data, m, r.h.cells)
		case kindUint:
			d.u64s, err = materializeUint(r.data, m, r.h.cells)
		case kindFloat:
			d.f64s, err = materializeFloat(r.data, m, r.h.cells)
		case kindKey:
			d.keys, err = materializeKeys(r.data, m, r.h.cells)
		}
		if err != nil {
			s.mu.Lock()
			s.dropCorrupt(r, err)
			s.removeRefLocked(r)
			s.mu.Unlock()
			return nil, err
		}
		out[ci] = d
	}
	return out, nil
}

// match evaluates the compiled filters against cell i of materialized
// columns.
func (cq *compiledQuery) match(cols map[int]*colData, metas []colMeta, i int) bool {
	for fi := range cq.filters {
		f := &cq.filters[fi]
		d := cols[f.col]
		ok := false
		switch columns[f.col].kind {
		case kindDict:
			ok = f.strs[metas[f.col].dict[d.idx[i]]]
		case kindUint:
			for _, u := range f.u64s {
				if u == d.u64s[i] {
					ok = true
					break
				}
			}
		case kindFloat:
			for _, x := range f.f64s {
				if x == d.f64s[i] {
					ok = true
					break
				}
			}
		case kindKey:
			for _, k := range f.keys {
				if k == d.keys[i] {
					ok = true
					break
				}
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// FullScan executes q by brute force: every block fully decoded, every
// cell evaluated, no pruning and no projection. It is the query engine's
// correctness oracle — Query must produce identical rows — and the
// baseline the bench harness compares pruned reads against.
func (s *Store) FullScan(q Query) (*Result, error) {
	if err := s.Flush(); err != nil {
		return nil, err
	}
	cq, err := compile(q)
	if err != nil {
		return nil, err
	}
	col := newCollector(&cq)
	col.dedup = true
	col.stats.ColumnsRead = len(columns)
	for _, ref := range s.snapshot() {
		r, err := s.acquire(ref)
		if err != nil {
			continue
		}
		cells, err := DecodeBlock(r.data)
		if err != nil {
			s.mu.Lock()
			s.dropCorrupt(ref, err)
			s.removeRefLocked(ref)
			s.mu.Unlock()
			continue
		}
		col.stats.BlocksTotal++
		col.stats.BlocksScanned++
		col.stats.BytesTotal += ref.size
		// Parsed bytes: header prefix, footer, and every column region —
		// everything but alignment padding, which neither path examines.
		col.stats.BytesRead += blockCheckedLen + r.h.footerLen
		for ci := range r.metas {
			col.stats.BytesRead += r.metas[ci].length
		}
		for i := range cells {
			col.stats.CellsScanned++
			cell := &cells[i]
			if !cq.matchCell(cell) {
				continue
			}
			col.add(cell.Key, cq.cellGroup(cell), cq.cellMetric(cell))
		}
	}
	return col.result(), nil
}

// ScanCells decodes every serveable block in order and returns all cells,
// duplicates included — the multiset tests and equivalence oracles build
// on it.
func (s *Store) ScanCells() ([]Cell, error) {
	if err := s.Flush(); err != nil {
		return nil, err
	}
	var out []Cell
	for _, ref := range s.snapshot() {
		r, err := s.acquire(ref)
		if err != nil {
			continue
		}
		cells, err := DecodeBlock(r.data)
		if err != nil {
			s.mu.Lock()
			s.dropCorrupt(ref, err)
			s.removeRefLocked(ref)
			s.mu.Unlock()
			continue
		}
		out = append(out, cells...)
	}
	return out, nil
}

// Lookup is Cells counted as a cache lookup: each requested key (once per
// occurrence) adds to Stats.LookupHits or Stats.LookupMisses. It is the
// sweep executor's first lookup, made before any cell is dispatched; a
// failed call counts every key as a miss.
func (s *Store) Lookup(keys []Key) (map[Key]Cell, error) {
	cells, err := s.Cells(keys)
	hits := 0
	for _, k := range keys {
		if _, ok := cells[k]; ok {
			hits++
		}
	}
	s.mu.Lock()
	s.stats.LookupHits += uint64(hits)
	s.stats.LookupMisses += uint64(len(keys) - hits)
	s.mu.Unlock()
	return cells, err
}

// Cells fetches the given content keys, keep-first across blocks. Blocks
// whose key-range statistics exclude every wanted key are skipped; a block
// is fully decoded only if its key column actually contains one. This is
// the figure pipeline's read path: before a sweep dispatches a cell it
// looks the cell up here (Lookup), and after the sweep it rehydrates every
// cell it just appended (or deduped against) from the store, making the
// engine the query layer's first consumer.
func (s *Store) Cells(keys []Key) (map[Key]Cell, error) {
	if err := s.Flush(); err != nil {
		return nil, err
	}
	want := make(map[Key]bool, len(keys))
	sorted := make([]Key, 0, len(keys))
	for _, k := range keys {
		if !want[k] {
			want[k] = true
			sorted = append(sorted, k)
		}
	}
	sort.Slice(sorted, func(i, j int) bool { return bytes.Compare(sorted[i][:], sorted[j][:]) < 0 })
	out := make(map[Key]Cell, len(keys))
	ki := colIndex["key"]
	for _, ref := range s.snapshot() {
		if len(out) == len(want) {
			break
		}
		r, err := s.acquire(ref)
		if err != nil {
			continue
		}
		m := &r.metas[ki]
		// Prune on the footer's key range: first wanted key ≥ min must
		// also be ≤ max for any overlap.
		i := sort.Search(len(sorted), func(i int) bool {
			return bytes.Compare(sorted[i][:], m.minK[:]) >= 0
		})
		if i == len(sorted) || bytes.Compare(sorted[i][:], m.maxK[:]) > 0 {
			continue
		}
		blockKeys, err := materializeKeys(r.data, m, r.h.cells)
		if err != nil {
			s.mu.Lock()
			s.dropCorrupt(ref, err)
			s.removeRefLocked(ref)
			s.mu.Unlock()
			continue
		}
		hit := false
		for _, k := range blockKeys {
			if want[k] {
				hit = true
				break
			}
		}
		if !hit {
			continue
		}
		cells, err := DecodeBlock(r.data)
		if err != nil {
			s.mu.Lock()
			s.dropCorrupt(ref, err)
			s.removeRefLocked(ref)
			s.mu.Unlock()
			continue
		}
		for i := range cells {
			k := cells[i].Key
			if want[k] {
				if _, dup := out[k]; !dup {
					out[k] = cells[i]
				}
			}
		}
	}
	return out, nil
}
