package mem

// TLB hierarchy: ChampSim models first-level instruction and data TLBs
// backed by a shared second-level TLB and a fixed-cost page walk. The
// CVP-1 traces include system activity, so address-translation behaviour is
// part of what the Samsung/Qualcomm trace studies could measure (§1).

// PageSize is the translation granularity.
const PageSize = 4096

// PageOf returns the virtual page number of addr.
func PageOf(addr uint64) uint64 { return addr / PageSize }

// TLBConfig parameterizes one translation buffer.
type TLBConfig struct {
	Name    string
	Sets    int
	Ways    int
	Latency uint64
}

// TLBStats counts translation events.
type TLBStats struct {
	Accesses, Hits, Misses uint64
}

// TLB is a set-associative translation buffer. All sets live in one flat
// slice: set s spans entries[s*ways : (s+1)*ways].
type TLB struct {
	cfg     TLBConfig
	entries []tlbEntry
	ways    int
	setMask uint64
	tick    uint64
	stats   TLBStats
}

type tlbEntry struct {
	vpn   uint64
	valid bool
	lru   uint64
}

// NewTLB builds a TLB; Sets must be a power of two.
func NewTLB(cfg TLBConfig) *TLB {
	if cfg.Sets <= 0 || cfg.Sets&(cfg.Sets-1) != 0 {
		panic("mem: TLB sets must be a positive power of two")
	}
	if cfg.Ways <= 0 {
		panic("mem: TLB ways must be positive")
	}
	return &TLB{
		cfg:     cfg,
		setMask: uint64(cfg.Sets - 1),
		entries: make([]tlbEntry, cfg.Sets*cfg.Ways),
		ways:    cfg.Ways,
	}
}

// Config returns the TLB configuration.
func (t *TLB) Config() TLBConfig { return t.cfg }

// Stats returns a snapshot of the counters.
func (t *TLB) Stats() TLBStats { return t.stats }

// ResetStats zeroes the counters.
func (t *TLB) ResetStats() { t.stats = TLBStats{} }

// Lookup probes the TLB for the page of addr, returning whether it hit and
// refreshing recency. Insertion on miss is the caller's job (after the next
// level resolves).
func (t *TLB) Lookup(addr uint64) bool {
	vpn := PageOf(addr)
	setIdx := int(vpn & t.setMask)
	set := t.entries[setIdx*t.ways : (setIdx+1)*t.ways]
	t.tick++
	t.stats.Accesses++
	for i := range set {
		e := &set[i]
		if e.valid && e.vpn == vpn {
			e.lru = t.tick
			t.stats.Hits++
			return true
		}
	}
	t.stats.Misses++
	return false
}

// Insert fills the translation for addr, evicting LRU.
func (t *TLB) Insert(addr uint64) {
	vpn := PageOf(addr)
	setIdx := int(vpn & t.setMask)
	set := t.entries[setIdx*t.ways : (setIdx+1)*t.ways]
	t.tick++
	victim := 0
	for i := range set {
		e := &set[i]
		if e.valid && e.vpn == vpn {
			e.lru = t.tick
			return
		}
		if !e.valid {
			victim = i
			break
		}
		if e.lru < set[victim].lru {
			victim = i
		}
	}
	set[victim] = tlbEntry{vpn: vpn, valid: true, lru: t.tick}
}

// TLBHierarchyConfig sizes the translation structures.
type TLBHierarchyConfig struct {
	ITLB, DTLB, STLB TLBConfig
	// WalkLatency is the page-table walk cost on an STLB miss.
	WalkLatency uint64
}

// DefaultTLBConfig mirrors ChampSim's defaults: 16-set/4-way L1 TLBs, a
// 128-set/12-way shared STLB, and a fixed page-walk cost.
func DefaultTLBConfig() TLBHierarchyConfig {
	return TLBHierarchyConfig{
		ITLB:        TLBConfig{Name: "ITLB", Sets: 16, Ways: 4, Latency: 1},
		DTLB:        TLBConfig{Name: "DTLB", Sets: 16, Ways: 4, Latency: 1},
		STLB:        TLBConfig{Name: "STLB", Sets: 128, Ways: 12, Latency: 8},
		WalkLatency: 120,
	}
}

// TLBHierarchy bundles ITLB/DTLB over a shared STLB.
type TLBHierarchy struct {
	ITLB, DTLB, STLB *TLB
	walk             uint64
}

// NewTLBHierarchy builds the translation hierarchy.
func NewTLBHierarchy(cfg TLBHierarchyConfig) *TLBHierarchy {
	return &TLBHierarchy{
		ITLB: NewTLB(cfg.ITLB),
		DTLB: NewTLB(cfg.DTLB),
		STLB: NewTLB(cfg.STLB),
		walk: cfg.WalkLatency,
	}
}

// TranslateI returns the extra latency of translating an instruction
// address: 0 on an ITLB hit, the STLB latency on an ITLB miss that hits
// the STLB, and the full walk beyond that. Fills happen inline.
func (h *TLBHierarchy) TranslateI(addr uint64) uint64 {
	return h.translate(h.ITLB, addr)
}

// TranslateD is TranslateI for data addresses through the DTLB.
func (h *TLBHierarchy) TranslateD(addr uint64) uint64 {
	return h.translate(h.DTLB, addr)
}

func (h *TLBHierarchy) translate(l1 *TLB, addr uint64) uint64 {
	if l1.Lookup(addr) {
		return 0
	}
	extra := h.STLB.cfg.Latency
	if !h.STLB.Lookup(addr) {
		extra += h.walk
		h.STLB.Insert(addr)
	}
	l1.Insert(addr)
	return extra
}

// ResetStats zeroes all TLB counters.
func (h *TLBHierarchy) ResetStats() {
	h.ITLB.ResetStats()
	h.DTLB.ResetStats()
	h.STLB.ResetStats()
}

// ValidVPNs returns the virtual page numbers of all valid entries in set
// order, for the warming equivalence tests.
func (t *TLB) ValidVPNs() []uint64 {
	var out []uint64
	for i := range t.entries {
		if t.entries[i].valid {
			out = append(out, t.entries[i].vpn)
		}
	}
	return out
}
