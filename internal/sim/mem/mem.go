// Package mem models the memory hierarchy of the simulated core: a DRAM
// backing store and set-associative write-back caches with MSHR-bounded
// miss overlap and optional prefetchers.
//
// Timing follows a latency-propagation scheme: an access resolves to the
// cycle at which its data is available, recursing into the next level on a
// miss. Each line records the cycle its fill completes, so accesses that
// arrive while a fill is in flight are merged into the outstanding miss
// (hit-under-fill), which models memory-level parallelism without a global
// event queue.
package mem

// LineSize is the cacheline size in bytes, shared with the converter.
const LineSize = 64

// LineAddr returns the cacheline-aligned address of addr.
func LineAddr(addr uint64) uint64 { return addr &^ uint64(LineSize-1) }

// AccessKind distinguishes demand reads/writes, instruction fetches, and
// prefetches (which do not count as demand misses).
type AccessKind uint8

const (
	// Read is a demand data read (load).
	Read AccessKind = iota
	// Write is a demand data write (store).
	Write
	// Fetch is a demand instruction fetch.
	Fetch
	// Prefetch is a speculative fill request.
	Prefetch
)

// IsDemand reports whether the access counts toward demand statistics.
func (k AccessKind) IsDemand() bool { return k != Prefetch }

// Level is anything that can service a cacheline request: a cache or DRAM.
// Access returns the cycle at which the requested line is available.
type Level interface {
	Access(addr uint64, cycle uint64, kind AccessKind) uint64
}

// Stats counts the events of one cache.
type Stats struct {
	Accesses, Hits, Misses   uint64
	PrefetchIssued           uint64
	PrefetchFills            uint64
	UsefulPrefetches         uint64
	MergedMisses             uint64 // demand accesses merged into an in-flight fill
	WriteAccesses, WriteMiss uint64
}

// Config parameterizes one cache level.
type Config struct {
	// Name labels the cache in statistics output ("L1I", "L2", ...).
	Name string
	// Sets and Ways define the organization; Sets must be a power of two.
	Sets, Ways int
	// Latency is the hit latency in cycles.
	Latency uint64
	// MSHRs bounds the number of concurrently outstanding fills.
	MSHRs int
	// Policy names the replacement policy: "lru" (default), "srrip", or
	// "drrip".
	Policy string
}

// SizeKB returns the capacity in kibibytes.
func (c Config) SizeKB() int { return c.Sets * c.Ways * LineSize / 1024 }

type line struct {
	tag   uint64
	valid bool
	// ready is the cycle at which the fill for this line completes.
	ready uint64
	// lru is a per-set sequence number; smaller = older.
	lru uint64
	// prefetched marks lines brought in by a prefetch and not yet
	// touched by demand.
	prefetched bool
}

// Prefetcher reacts to demand accesses of the cache it is attached to and
// issues speculative fills through the owning cache.
type Prefetcher interface {
	// Name identifies the prefetcher.
	Name() string
	// OnAccess is invoked for every demand access, after the hit/miss
	// outcome is known. ip is the program counter of the requesting
	// instruction (0 for instruction fetches). Prefetch addresses are
	// appended to buf and the extended slice returned, so the owning
	// cache can reuse one buffer across accesses.
	OnAccess(addr, ip uint64, hit bool, buf []uint64) []uint64
}

// Cache is one set-associative write-back cache level. The lines of all
// sets live in one contiguous slice (set s spans lines[s*ways : (s+1)*ways])
// so a lookup touches a single allocation with no per-set header hop.
type Cache struct {
	cfg     Config
	next    Level
	lines   []line
	ways    int
	lruTick uint64
	// outstanding holds completion cycles of in-flight fills for MSHR
	// accounting; expired entries are pruned lazily.
	outstanding []uint64
	pf          Prefetcher
	// pfBuf is the reusable buffer the prefetcher appends into.
	pfBuf   []uint64
	policy  Replacement // nil = built-in LRU
	stats   Stats
	setMask uint64
	// tagShift is the precomputed bit offset of the tag within a line
	// address (log2 of the set count).
	tagShift uint
	// warmHint remembers, per set, the way of the most recent warm-path
	// hit or fill. Warm accesses probe it before scanning the set: the
	// functional warmer touches every memory reference of the gap, so the
	// hit path runs hundreds of times per detailed instruction and the
	// MRU way wins often enough to skip most full scans. The hint is pure
	// acceleration — hit bookkeeping is identical either way — and the
	// detailed path does not consult it.
	warmHint []uint8
	// requester is the index of the core currently driving accesses. It
	// matters only on shared levels (see SetRequester) and stays 0 on
	// private caches.
	requester int
	// coreStats, when non-nil, accumulates per-requester counters in
	// parallel with stats. Enabled only on shared levels (EnablePerCore);
	// nil on private caches, so the single-core hot path pays one
	// predictable branch.
	coreStats []Stats
}

// SetRequester tags subsequent accesses with the issuing core's index, for
// per-core accounting and core-aware replacement on shared levels. The
// multi-core engine calls it before each core's pipeline pass.
func (c *Cache) SetRequester(core int) {
	c.requester = core
	if p, ok := c.policy.(interface{ SetRequester(int) }); ok {
		p.SetRequester(core)
	}
}

// EnablePerCore switches on per-requester statistics for n cores. Shared
// counters cannot be reset per core (resetting for one core would destroy
// the others' warm-up baselines), so consumers snapshot CoreStats at
// measurement start and subtract.
func (c *Cache) EnablePerCore(n int) { c.coreStats = make([]Stats, n) }

// CoreStats returns the counters attributed to core i. Zero-valued unless
// EnablePerCore was called.
func (c *Cache) CoreStats(i int) Stats {
	if c.coreStats == nil {
		return Stats{}
	}
	return c.coreStats[i]
}

// Sub returns s minus b, counter by counter — the per-core measurement
// window delta on a shared level.
func (s Stats) Sub(b Stats) Stats {
	return Stats{
		Accesses:         s.Accesses - b.Accesses,
		Hits:             s.Hits - b.Hits,
		Misses:           s.Misses - b.Misses,
		PrefetchIssued:   s.PrefetchIssued - b.PrefetchIssued,
		PrefetchFills:    s.PrefetchFills - b.PrefetchFills,
		UsefulPrefetches: s.UsefulPrefetches - b.UsefulPrefetches,
		MergedMisses:     s.MergedMisses - b.MergedMisses,
		WriteAccesses:    s.WriteAccesses - b.WriteAccesses,
		WriteMiss:        s.WriteMiss - b.WriteMiss,
	}
}

// NewCache builds a cache in front of next. cfg.Sets must be a power of two.
func NewCache(cfg Config, next Level) *Cache {
	if cfg.Sets <= 0 || cfg.Sets&(cfg.Sets-1) != 0 {
		panic("mem: cache sets must be a positive power of two")
	}
	if cfg.Ways <= 0 {
		panic("mem: cache ways must be positive")
	}
	if cfg.MSHRs <= 0 {
		cfg.MSHRs = 8
	}
	pol, ok := NewReplacement(cfg.Policy, cfg.Sets, cfg.Ways)
	if !ok {
		panic("mem: unknown replacement policy " + cfg.Policy)
	}
	return &Cache{
		cfg:         cfg,
		next:        next,
		setMask:     uint64(cfg.Sets - 1),
		tagShift:    uint(trailingBits(uint64(cfg.Sets))),
		policy:      pol,
		lines:       make([]line, cfg.Sets*cfg.Ways),
		ways:        cfg.Ways,
		outstanding: make([]uint64, 0, 2*cfg.MSHRs),
		warmHint:    make([]uint8, cfg.Sets),
	}
}

// SetPrefetcher attaches p to the cache. Prefetches issued by p fill this
// cache (and, transitively, lower levels).
func (c *Cache) SetPrefetcher(p Prefetcher) { c.pf = p }

// Config returns the cache configuration.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a snapshot of the counters.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats zeroes the counters (end of warm-up).
func (c *Cache) ResetStats() { c.stats = Stats{} }

func (c *Cache) index(addr uint64) (setIdx int, tag uint64) {
	lineNo := addr / LineSize
	return int(lineNo & c.setMask), lineNo >> c.tagShift
}

func trailingBits(n uint64) int {
	b := 0
	for n > 1 {
		n >>= 1
		b++
	}
	return b
}

// Access requests the line containing addr at the given cycle and returns
// the cycle at which data is available. ip is used only to drive the
// attached prefetcher.
func (c *Cache) Access(addr uint64, cycle uint64, kind AccessKind) uint64 {
	return c.AccessIP(addr, 0, cycle, kind)
}

// AccessIP is Access with the requesting instruction pointer, which
// IP-indexed prefetchers need.
func (c *Cache) AccessIP(addr, ip uint64, cycle uint64, kind AccessKind) uint64 {
	done, hit := c.lookup(addr, cycle, kind)
	if kind.IsDemand() && c.pf != nil {
		c.pfBuf = c.pf.OnAccess(LineAddr(addr), ip, hit, c.pfBuf[:0])
		for _, pa := range c.pfBuf {
			c.stats.PrefetchIssued++
			if c.coreStats != nil {
				c.coreStats[c.requester].PrefetchIssued++
			}
			c.lookup(pa, cycle, Prefetch)
		}
	}
	return done
}

// WarmAccess is the functional-warming counterpart of AccessIP: tags, LRU
// state, replacement policy, statistics, and (when train is set) prefetcher
// training evolve exactly as in a detailed access, but fill timing — MSHR
// occupancy, latency propagation, the DRAM bank model — is skipped, since a
// fast-forwarding simulator has no meaningful cycle to charge it to. Lines
// filled this way are immediately ready.
//
// fill controls whether trained prefetches also insert their lines. The
// full warm window preceding a detailed interval fills (matching what the
// detailed engine would have done); the long light phase trains without
// filling, because a functional fill is perfectly timed — no bandwidth,
// MSHR, or latency constraints — and letting it run for a whole gap
// idealizes the cache contents enough to visibly inflate interval IPC on
// prefetch-friendly traces.
func (c *Cache) WarmAccess(addr, ip uint64, kind AccessKind, train, fill bool) {
	hit := c.warmTouch(addr, kind, train, fill)
	if kind.IsDemand() && train && c.pf != nil {
		c.pfBuf = c.pf.OnAccess(LineAddr(addr), ip, hit, c.pfBuf[:0])
		if !fill {
			return
		}
		for _, pa := range c.pfBuf {
			c.stats.PrefetchIssued++
			c.warmTouch(pa, Prefetch, train, fill)
		}
	}
}

// warmTouch performs the timing-free lookup-and-fill of WarmAccess and
// reports whether it hit. Misses recurse into the next cache level (DRAM
// has no warm-relevant state).
func (c *Cache) warmTouch(addr uint64, kind AccessKind, train, fill bool) bool {
	setIdx, tag := c.index(addr)
	set := c.lines[setIdx*c.ways : (setIdx+1)*c.ways]
	demand := kind.IsDemand()
	if demand {
		c.stats.Accesses++
		if kind == Write {
			c.stats.WriteAccesses++
		}
	}
	c.lruTick++

	way := int(c.warmHint[setIdx])
	if way >= len(set) || !set[way].valid || set[way].tag != tag {
		way = -1
		for i := range set {
			if set[i].valid && set[i].tag == tag {
				way = i
				c.warmHint[setIdx] = uint8(i)
				break
			}
		}
	}
	if way >= 0 {
		ln := &set[way]
		ln.lru = c.lruTick
		if c.policy != nil && demand {
			c.policy.Hit(setIdx, way)
		}
		if demand {
			c.stats.Hits++
			if ln.prefetched {
				c.stats.UsefulPrefetches++
				ln.prefetched = false
			}
		}
		return true
	}

	if demand {
		c.stats.Misses++
		if kind == Write {
			c.stats.WriteMiss++
		}
	} else {
		c.stats.PrefetchFills++
	}
	nextKind := kind
	if kind == Write {
		nextKind = Read
	}
	if next, ok := c.next.(*Cache); ok {
		next.WarmAccess(addr, 0, nextKind, train, fill)
	}

	victim := -1
	for i := range set {
		if !set[i].valid {
			victim = i
			break
		}
	}
	if victim < 0 {
		if c.policy != nil {
			victim = c.policy.Victim(setIdx)
		} else {
			victim = 0
			for i := range set {
				if set[i].lru < set[victim].lru {
					victim = i
				}
			}
		}
	}
	set[victim] = line{tag: tag, valid: true, lru: c.lruTick, prefetched: kind == Prefetch}
	c.warmHint[setIdx] = uint8(victim)
	if c.policy != nil {
		c.policy.Fill(setIdx, victim, kind == Prefetch)
	}
	return false
}

func (c *Cache) lookup(addr uint64, cycle uint64, kind AccessKind) (uint64, bool) {
	setIdx, tag := c.index(addr)
	set := c.lines[setIdx*c.ways : (setIdx+1)*c.ways]
	var cs *Stats
	if c.coreStats != nil {
		cs = &c.coreStats[c.requester]
	}
	demand := kind.IsDemand()
	if demand {
		c.stats.Accesses++
		if kind == Write {
			c.stats.WriteAccesses++
		}
		if cs != nil {
			cs.Accesses++
			if kind == Write {
				cs.WriteAccesses++
			}
		}
	}
	c.lruTick++

	for i := range set {
		ln := &set[i]
		if ln.valid && ln.tag == tag {
			ln.lru = c.lruTick
			if c.policy != nil && demand {
				c.policy.Hit(setIdx, i)
			}
			if demand {
				c.stats.Hits++
				if cs != nil {
					cs.Hits++
				}
				if ln.prefetched {
					c.stats.UsefulPrefetches++
					if cs != nil {
						cs.UsefulPrefetches++
					}
					ln.prefetched = false
				}
				if ln.ready > cycle {
					c.stats.MergedMisses++
					if cs != nil {
						cs.MergedMisses++
					}
				}
			}
			return max64(cycle, ln.ready) + c.cfg.Latency, true
		}
	}

	// Miss.
	if demand {
		c.stats.Misses++
		if kind == Write {
			c.stats.WriteMiss++
		}
		if cs != nil {
			cs.Misses++
			if kind == Write {
				cs.WriteMiss++
			}
		}
	} else {
		c.stats.PrefetchFills++
		if cs != nil {
			cs.PrefetchFills++
		}
	}

	// MSHR occupancy: if all miss registers are busy, the request waits
	// for the earliest outstanding fill to complete. Prefetches that
	// find the MSHRs full are dropped.
	start := cycle + c.cfg.Latency // tag lookup before the miss goes out
	live := c.outstanding[:0]
	earliest := uint64(0)
	for _, t := range c.outstanding {
		if t > cycle {
			live = append(live, t)
			if earliest == 0 || t < earliest {
				earliest = t
			}
		}
	}
	c.outstanding = live
	if len(c.outstanding) >= c.cfg.MSHRs {
		if kind == Prefetch {
			return 0, false
		}
		start = max64(start, earliest)
	}

	nextKind := kind
	if kind == Write {
		// Write misses fetch the line for ownership; downstream they
		// look like reads.
		nextKind = Read
	}
	ready := c.next.Access(addr, start, nextKind)
	c.outstanding = append(c.outstanding, ready)

	// Victim selection: invalid lines first, then the configured policy
	// (or LRU).
	victim := -1
	for i := range set {
		if !set[i].valid {
			victim = i
			break
		}
	}
	if victim < 0 {
		if c.policy != nil {
			victim = c.policy.Victim(setIdx)
		} else {
			victim = 0
			for i := range set {
				if set[i].lru < set[victim].lru {
					victim = i
				}
			}
		}
	}
	set[victim] = line{tag: tag, valid: true, ready: ready, lru: c.lruTick, prefetched: kind == Prefetch}
	if c.policy != nil {
		c.policy.Fill(setIdx, victim, kind == Prefetch)
	}
	return ready, false
}

// Contains reports whether the line holding addr is present (regardless of
// fill completion) — used by tests and by front-end probe logic.
func (c *Cache) Contains(addr uint64) bool {
	setIdx, tag := c.index(addr)
	for _, ln := range c.lines[setIdx*c.ways : (setIdx+1)*c.ways] {
		if ln.valid && ln.tag == tag {
			return true
		}
	}
	return false
}

// DRAM is the fixed-latency backing store with a simple bank model: each of
// Banks banks serializes requests spaced less than ServiceTime apart, which
// approximates bandwidth and bank-conflict effects.
type DRAM struct {
	// Latency is the row access latency in cycles.
	Latency uint64
	// ServiceTime is the per-request bank occupancy in cycles.
	ServiceTime uint64
	// Banks is the number of independent banks (power of two).
	Banks int

	nextFree []uint64
	accesses uint64
}

// NewDRAM returns a DRAM model with the given latency, service time and
// bank count.
func NewDRAM(latency, serviceTime uint64, banks int) *DRAM {
	if banks <= 0 || banks&(banks-1) != 0 {
		panic("mem: DRAM banks must be a positive power of two")
	}
	return &DRAM{Latency: latency, ServiceTime: serviceTime, Banks: banks, nextFree: make([]uint64, banks)}
}

// Access implements Level.
func (d *DRAM) Access(addr uint64, cycle uint64, kind AccessKind) uint64 {
	d.accesses++
	bank := int((addr / LineSize) % uint64(d.Banks))
	start := max64(cycle, d.nextFree[bank])
	d.nextFree[bank] = start + d.ServiceTime
	return start + d.Latency
}

// Accesses returns the total number of requests serviced.
func (d *DRAM) Accesses() uint64 { return d.accesses }

func max64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}

// Hierarchy bundles the four cache levels of the simulated core. In a
// multi-core system each core holds its own Hierarchy view: private
// L1I/L1D/L2 plus pointers to the shared LLC and DRAM (Shared set).
type Hierarchy struct {
	L1I, L1D, L2, LLC *Cache
	DRAM              *DRAM
	// Shared marks this view as one core's slice of a SharedHierarchy:
	// the LLC (and DRAM) are owned jointly, so per-core operations must
	// not mutate them (see ResetStats).
	Shared bool
}

// HierarchyConfig sizes the four levels.
type HierarchyConfig struct {
	L1I, L1D, L2, LLC Config
	DRAMLatency       uint64
	DRAMService       uint64
	DRAMBanks         int
}

// DefaultHierarchyConfig mirrors ChampSim's single-core defaults:
// 32 KB/8-way L1I, 48 KB/12-way L1D, 512 KB/8-way L2, 2 MB/16-way LLC.
func DefaultHierarchyConfig() HierarchyConfig {
	return HierarchyConfig{
		L1I:         Config{Name: "L1I", Sets: 64, Ways: 8, Latency: 4, MSHRs: 8},
		L1D:         Config{Name: "L1D", Sets: 64, Ways: 12, Latency: 5, MSHRs: 16},
		L2:          Config{Name: "L2", Sets: 1024, Ways: 8, Latency: 10, MSHRs: 32},
		LLC:         Config{Name: "LLC", Sets: 2048, Ways: 16, Latency: 20, MSHRs: 64},
		DRAMLatency: 200,
		DRAMService: 16,
		DRAMBanks:   8,
	}
}

// NewHierarchy builds the L1I/L1D → L2 → LLC → DRAM hierarchy.
func NewHierarchy(cfg HierarchyConfig) *Hierarchy {
	dram := NewDRAM(cfg.DRAMLatency, cfg.DRAMService, cfg.DRAMBanks)
	llc := NewCache(cfg.LLC, dram)
	l2 := NewCache(cfg.L2, llc)
	return &Hierarchy{
		L1I:  NewCache(cfg.L1I, l2),
		L1D:  NewCache(cfg.L1D, l2),
		L2:   l2,
		LLC:  llc,
		DRAM: dram,
	}
}

// ResetStats clears the counters of every level (end of warm-up). On a
// shared view the LLC is skipped: its global counters belong to all cores,
// and per-core windows are measured by CoreStats deltas instead.
func (h *Hierarchy) ResetStats() {
	h.L1I.ResetStats()
	h.L1D.ResetStats()
	h.L2.ResetStats()
	if !h.Shared {
		h.LLC.ResetStats()
	}
}

// ValidTags returns the tags of all valid lines in set order; the
// functional-warming equivalence tests compare the warmed and detailed
// cache images through it.
func (c *Cache) ValidTags() []uint64 {
	var out []uint64
	for i := range c.lines {
		if c.lines[i].valid {
			out = append(out, c.lines[i].tag)
		}
	}
	return out
}
