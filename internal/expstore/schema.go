// Package expstore is the append-only store for sweep result cells — the
// (trace × variant × config) matrix a production deployment accumulates
// and explores interactively. A block file is one self-validating frame
// record (magic, format version, schema key, CRC-32C) over a batch of
// rows, each row the cell's columns in schema order. The first read loads
// every block once into one in-memory row set, deduplicated by content
// key; lookups, read-back and queries all answer from that set.
//
// The store follows the tracestore discipline: a truncated block or one
// whose checksum fails is corrupt (removed, warned, counted — the cells
// are re-appended by the next sweep), and a block of another format
// version or schema is foreign (skipped, warned, counted, left in place).
package expstore

import (
	"tracerebase/internal/core"
	"tracerebase/internal/resultcache"
	"tracerebase/internal/sim"
)

// FormatVersion identifies the on-disk block layout. Bump it for any
// change to the row encoding; old-version files then read as foreign and
// are ignored, as every version 1 block (magic "EXPB") is.
const FormatVersion = 2

// Key is the 32-byte content address of a cell — the same result-cache key
// the sweep engine uses, so a store cell and its cache entry corroborate
// each other.
type Key = resultcache.Key

// Cell is one row of the experiment matrix: a (trace, variant, config)
// simulation outcome with its identity fields and the full counter set.
// Every field round-trips bit-exactly through a block, which is what lets
// the figure pipeline consume store-read cells in place of in-memory ones.
type Cell struct {
	// Trace, Category, Variant name the cell's position in the matrix.
	Trace    string
	Category string
	Variant  string
	// Config is the simulator model name ("develop", "ipc1"); Prefetcher
	// is its L1I instruction prefetcher; ROB, Cores and SamplePeriod are
	// the config-identity fields queries group and filter by.
	Config       string
	Prefetcher   string
	ROB          uint64
	Cores        uint64
	SamplePeriod uint64
	// Instructions and Warmup are the run lengths of the sweep that
	// produced the cell.
	Instructions uint64
	Warmup       uint64
	// Build is the code fingerprint (resultcache.Fingerprint) of the
	// binary that produced the cell, so queries can keep code versions
	// apart.
	Build string
	// Key is the cell's full content address (profile, options, config
	// identity, run lengths, code fingerprint) — the dedup and read-back
	// handle.
	Key Key
	// IPC is the headline metric; Sim and Conv carry the complete
	// simulator and converter counter sets.
	IPC  float64
	Sim  sim.Stats
	Conv core.Stats
}

// colKind selects a column's type and its encoding within a row.
type colKind uint8

const (
	// kindString: a uvarint length, then the bytes.
	kindString colKind = 1
	// kindUint: a uvarint.
	kindUint colKind = 2
	// kindFloat: the little-endian IEEE-754 bits, 8 bytes.
	kindFloat colKind = 3
	// kindKey: the 32 raw bytes of a content key.
	kindKey colKind = 4
)

// column describes one schema column: its name, encoding kind, and a
// pointer accessor into Cell. Exactly one accessor is non-nil, matching
// the kind.
type column struct {
	name string
	kind colKind
	str  func(*Cell) *string
	u64  func(*Cell) *uint64
	f64  func(*Cell) *float64
	ckey func(*Cell) *Key
}

func strCol(name string, f func(*Cell) *string) column {
	return column{name: name, kind: kindString, str: f}
}
func uintCol(name string, f func(*Cell) *uint64) column {
	return column{name: name, kind: kindUint, u64: f}
}
func floatCol(name string, f func(*Cell) *float64) column {
	return column{name: name, kind: kindFloat, f64: f}
}

// columns is the schema, in row order: it drives the row codec, the
// query language's column names and the schema key. The identity columns
// lead, then the headline metric, then the full simulator and converter
// counter sets. TestSchemaCoversStats pins this list against the Stats
// structs by reflection: adding a field to sim.Stats or core.Stats without
// a column here fails that test rather than silently dropping data.
var columns = []column{
	strCol("trace", func(c *Cell) *string { return &c.Trace }),
	strCol("category", func(c *Cell) *string { return &c.Category }),
	strCol("variant", func(c *Cell) *string { return &c.Variant }),
	strCol("config", func(c *Cell) *string { return &c.Config }),
	strCol("prefetcher", func(c *Cell) *string { return &c.Prefetcher }),
	uintCol("rob", func(c *Cell) *uint64 { return &c.ROB }),
	uintCol("cores", func(c *Cell) *uint64 { return &c.Cores }),
	uintCol("sample_period", func(c *Cell) *uint64 { return &c.SamplePeriod }),
	uintCol("instructions", func(c *Cell) *uint64 { return &c.Instructions }),
	uintCol("warmup", func(c *Cell) *uint64 { return &c.Warmup }),
	strCol("build", func(c *Cell) *string { return &c.Build }),
	{name: "key", kind: kindKey, ckey: func(c *Cell) *Key { return &c.Key }},
	floatCol("ipc", func(c *Cell) *float64 { return &c.IPC }),

	uintCol("sim_instructions", func(c *Cell) *uint64 { return &c.Sim.Instructions }),
	uintCol("cycles", func(c *Cell) *uint64 { return &c.Sim.Cycles }),
	uintCol("branches", func(c *Cell) *uint64 { return &c.Sim.Branches }),
	uintCol("cond_branches", func(c *Cell) *uint64 { return &c.Sim.CondBranches }),
	uintCol("taken_branches", func(c *Cell) *uint64 { return &c.Sim.TakenBranches }),
	uintCol("mispredicts", func(c *Cell) *uint64 { return &c.Sim.Mispredicts }),
	uintCol("dir_mispredicts", func(c *Cell) *uint64 { return &c.Sim.DirMispredicts }),
	uintCol("target_mispredicts", func(c *Cell) *uint64 { return &c.Sim.TargetMispredicts }),
	uintCol("returns", func(c *Cell) *uint64 { return &c.Sim.Returns }),
	uintCol("return_mispredicts", func(c *Cell) *uint64 { return &c.Sim.ReturnMispredicts }),
	uintCol("btb_misses", func(c *Cell) *uint64 { return &c.Sim.BTBMisses }),
	uintCol("loads", func(c *Cell) *uint64 { return &c.Sim.Loads }),
	uintCol("stores", func(c *Cell) *uint64 { return &c.Sim.Stores }),
	uintCol("l1i_accesses", func(c *Cell) *uint64 { return &c.Sim.L1I.Accesses }),
	uintCol("l1i_misses", func(c *Cell) *uint64 { return &c.Sim.L1I.Misses }),
	uintCol("l1i_useful_prefetches", func(c *Cell) *uint64 { return &c.Sim.L1I.UsefulPrefetches }),
	uintCol("l1d_accesses", func(c *Cell) *uint64 { return &c.Sim.L1D.Accesses }),
	uintCol("l1d_misses", func(c *Cell) *uint64 { return &c.Sim.L1D.Misses }),
	uintCol("l1d_useful_prefetches", func(c *Cell) *uint64 { return &c.Sim.L1D.UsefulPrefetches }),
	uintCol("l2_accesses", func(c *Cell) *uint64 { return &c.Sim.L2.Accesses }),
	uintCol("l2_misses", func(c *Cell) *uint64 { return &c.Sim.L2.Misses }),
	uintCol("l2_useful_prefetches", func(c *Cell) *uint64 { return &c.Sim.L2.UsefulPrefetches }),
	uintCol("llc_accesses", func(c *Cell) *uint64 { return &c.Sim.LLC.Accesses }),
	uintCol("llc_misses", func(c *Cell) *uint64 { return &c.Sim.LLC.Misses }),
	uintCol("llc_useful_prefetches", func(c *Cell) *uint64 { return &c.Sim.LLC.UsefulPrefetches }),
	uintCol("itlb_misses", func(c *Cell) *uint64 { return &c.Sim.ITLBMisses }),
	uintCol("dtlb_misses", func(c *Cell) *uint64 { return &c.Sim.DTLBMisses }),
	uintCol("stlb_misses", func(c *Cell) *uint64 { return &c.Sim.STLBMisses }),
	uintCol("skipped_cycles", func(c *Cell) *uint64 { return &c.Sim.SkippedCycles }),
	uintCol("cycle_skips", func(c *Cell) *uint64 { return &c.Sim.CycleSkips }),
	uintCol("sample_intervals", func(c *Cell) *uint64 { return &c.Sim.SampleIntervals }),
	uintCol("warmed_instructions", func(c *Cell) *uint64 { return &c.Sim.WarmedInstructions }),
	uintCol("skipped_instructions", func(c *Cell) *uint64 { return &c.Sim.SkippedInstructions }),
	floatCol("sample_ipc_mean", func(c *Cell) *float64 { return &c.Sim.SampleIPCMean }),
	floatCol("sample_ci95", func(c *Cell) *float64 { return &c.Sim.SampleCI95 }),

	uintCol("conv_in", func(c *Cell) *uint64 { return &c.Conv.In }),
	uintCol("conv_out", func(c *Cell) *uint64 { return &c.Conv.Out }),
	uintCol("conv_mem_no_dst", func(c *Cell) *uint64 { return &c.Conv.MemNoDst }),
	uintCol("conv_multi_dst_loads", func(c *Cell) *uint64 { return &c.Conv.MultiDstLoads }),
	uintCol("conv_base_update_loads", func(c *Cell) *uint64 { return &c.Conv.BaseUpdateLoads }),
	uintCol("conv_base_update_stores", func(c *Cell) *uint64 { return &c.Conv.BaseUpdateStores }),
	uintCol("conv_pre_index", func(c *Cell) *uint64 { return &c.Conv.PreIndex }),
	uintCol("conv_post_index", func(c *Cell) *uint64 { return &c.Conv.PostIndex }),
	uintCol("conv_cross_line", func(c *Cell) *uint64 { return &c.Conv.CrossLine }),
	uintCol("conv_dczva", func(c *Cell) *uint64 { return &c.Conv.DCZVA }),
	uintCol("conv_returns", func(c *Cell) *uint64 { return &c.Conv.Returns }),
	uintCol("conv_direct_calls", func(c *Cell) *uint64 { return &c.Conv.DirectCalls }),
	uintCol("conv_indirect_calls", func(c *Cell) *uint64 { return &c.Conv.IndirectCalls }),
	uintCol("conv_direct_jumps", func(c *Cell) *uint64 { return &c.Conv.DirectJumps }),
	uintCol("conv_indirect_jumps", func(c *Cell) *uint64 { return &c.Conv.IndirectJumps }),
	uintCol("conv_cond_branches", func(c *Cell) *uint64 { return &c.Conv.CondBranches }),
	uintCol("conv_rw_lr_branches", func(c *Cell) *uint64 { return &c.Conv.ReadWriteLRBranches }),
	uintCol("conv_cond_with_src", func(c *Cell) *uint64 { return &c.Conv.CondWithSrc }),
	uintCol("conv_flag_dst_added", func(c *Cell) *uint64 { return &c.Conv.FlagDstAdded }),
}

// colIndex maps column name to its schema position.
var colIndex = func() map[string]int {
	m := make(map[string]int, len(columns))
	for i, c := range columns {
		m[c.name] = i
	}
	return m
}()

// schemaKey is the content hash of the schema — column names, kinds, and
// order, under the format version. It is the key of every block's frame,
// so a block written by a build with a different schema reads as foreign
// rather than mis-decoding.
var schemaKey = func() Key {
	h := resultcache.NewHasher("tracerebase/expstore-schema").U64(FormatVersion)
	for _, c := range columns {
		h.Str(c.name).U64(uint64(c.kind))
	}
	return h.Sum()
}()

// NumericColumn reports whether name is a queryable numeric column (uint
// or float) — a valid metric for queries.
func NumericColumn(name string) bool {
	i, ok := colIndex[name]
	if !ok {
		return false
	}
	return columns[i].kind == kindUint || columns[i].kind == kindFloat
}
