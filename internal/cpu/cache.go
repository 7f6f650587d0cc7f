package cpu

// Cache is a set-associative cache model with true-LRU replacement. It
// tracks hits and misses only — the timing model converts misses into
// latency. Addresses are byte addresses.
type Cache struct {
	name     string
	lineBits uint
	sets     int
	setMask  int64 // sets-1; sets is always a power of two
	ways     int

	// Tag and LRU stamp are interleaved per way so a lookup touches one
	// hardware cache line per set instead of two parallel arrays. LRU
	// stamps are 64-bit: a 32-bit tick wraps after ~4.3 B accesses,
	// after which stamp comparisons pick the wrong victim.
	entries []cacheWay // sets*ways entries
	tick    uint64

	// lastLine/lastWay remember the most recently touched line and its
	// way index in entries, so back-to-back accesses to one line (stack
	// traffic, sequential fetch) skip the tag scan. The MRU line can
	// never be the LRU victim of another set's insertion (ways >= 2), and
	// a single-way insertion updates the pair itself, so the shortcut is
	// exactly the scan's hit path: same counters, same stamp.
	lastLine int64
	lastWay  int32

	Accesses uint64
	Misses   uint64
}

type cacheWay struct {
	tag int64 // -1 = invalid
	lru uint64
}

// lineShift is log2 of the (fixed) 64-byte line size, shared with the
// hot paths that pre-compute line numbers without a field load.
const lineShift = 6

// NewCache builds a cache of the given total size with 64-byte lines. The
// set count is rounded up to a power of two so the hot-path set index is a
// mask instead of an int64 division; sizeBytes should be a multiple of
// ways*64 (and a power-of-two total, as real cache geometries are).
func NewCache(name string, sizeBytes, ways int) *Cache {
	const lineBytes = 1 << lineShift
	sets := sizeBytes / (lineBytes * ways)
	if sets < 1 {
		sets = 1
	}
	// Round up to the next power of two (no-op for the Table 2 geometries,
	// which are already powers of two).
	pow2 := 1
	for pow2 < sets {
		pow2 <<= 1
	}
	sets = pow2
	c := &Cache{
		name:     name,
		lineBits: lineShift,
		sets:     sets,
		setMask:  int64(sets - 1),
		ways:     ways,
		entries:  make([]cacheWay, sets*ways),
	}
	for i := range c.entries {
		c.entries[i].tag = -1
	}
	c.lastLine = -1
	return c
}

// Access looks up addr, inserting the line on a miss. It reports a hit.
// The MRU shortcut handles repeated accesses to the last-touched line
// without scanning; everything else takes the full lookup.
func (c *Cache) Access(addr int64) bool {
	line := addr >> c.lineBits
	c.Accesses++
	c.tick++
	if line == c.lastLine {
		c.entries[c.lastWay].lru = c.tick
		return true
	}
	// Full set lookup: the tag scan runs bare first — hits (the
	// overwhelmingly common case) skip the LRU victim bookkeeping
	// entirely; the victim scan picks the same first-oldest way the
	// fused scan did.
	set := int(line & c.setMask)
	base := set * c.ways
	ws := c.entries[base : base+c.ways]
	for w := range ws {
		if ws[w].tag == line {
			ws[w].lru = c.tick
			// Move the hit way to the front of the set so hot lines are
			// found on the first probe next time. Physical way order is
			// invisible to the model: stamps are unique (tick is
			// monotonic), so both the tag scan and the strict-minimum
			// victim scan are position-independent; the only stamp ties
			// are between identical invalid entries.
			if w != 0 {
				ws[0], ws[w] = ws[w], ws[0]
			}
			c.lastLine = line
			c.lastWay = int32(base)
			return true
		}
	}
	victim := 0
	oldest := ws[0].lru
	for w := 1; w < len(ws); w++ {
		if ws[w].lru < oldest {
			oldest = ws[w].lru
			victim = w
		}
	}
	c.Misses++
	ws[victim].tag = line
	ws[victim].lru = c.tick
	c.lastLine = line
	c.lastWay = int32(base + victim)
	return false
}
