// Package core implements the paper's contribution: the Memory Address
// Buffer (MAB) and the way-memoized cache controllers built around it.
//
// The MAB (Section 3.3, Figure 3 of the paper) keeps two small tables:
//
//   - a tag table of Nt entries, each holding the upper 18 bits of a *base*
//     address plus a 2-bit cflag (the carry out of a 14-bit adder over the
//     low address bits, and the sign class of the displacement), and
//   - a set-index table of Ns entries, each holding a 9-bit set index,
//
// plus an Nt×Ns cross-product of valid flags and memoized way numbers
// (vflag[t][s], way[t][s]). A 2x8-entry MAB can therefore memoize up to 16
// addresses while storing only 2 tags and 8 set indices.
//
// Because the tag table is keyed by the base address's upper bits and the
// cflag — not by the final tag — the MAB can be probed in parallel with the
// 32-bit address adder: only a 14-bit add of the low bits is needed, whose
// delay is below the full adder's. Two different (base, cflag) keys may
// denote the same physical tag; that costs hits, never correctness.
package core

import (
	"fmt"

	"waymemo/internal/cache"
	"waymemo/internal/synth"
)

// Policy selects how the MAB is kept consistent with the cache (MAB ⊆ cache:
// a valid MAB pair must always point at a resident line).
type Policy uint8

const (
	// PolicyEvictInvalidate clears MAB pairs that match a line evicted from
	// the cache. It is sound by construction and is the default used for
	// the power results. Hardware cost: one reverse comparison per refill,
	// which is rare.
	PolicyEvictInvalidate Policy = iota
	// PolicyPaper relies solely on the paper's LRU argument and the
	// large-displacement clearing rule. The controllers detect and count
	// (rare) violations of MAB ⊆ cache under this policy; see
	// ARCHITECTURE.md, "Known deviations from the paper", for a concrete
	// interleaving that triggers one when the number of tag entries equals
	// the number of cache ways.
	PolicyPaper
)

// ClearMode selects what the MAB invalidates when an access bypasses it
// (displacement out of the 14-bit adder's range, or an indirect jump).
type ClearMode uint8

const (
	// ClearAuto picks ClearNone for PolicyEvictInvalidate (evictions are
	// already precise) and ClearAll for PolicyPaper.
	ClearAuto ClearMode = iota
	// ClearAll invalidates every vflag: trivially conservative.
	ClearAll
	// ClearLRURow invalidates only the LRU tag row, one reading of the
	// paper's §3.3 rule.
	ClearLRURow
	// ClearNone performs no invalidation.
	ClearNone
)

// Config sizes and parameterizes a MAB.
type Config struct {
	// TagEntries (Nt) and SetEntries (Ns). The paper finds 2x8 optimal for
	// the D-cache and uses 2x16 for the I-cache.
	TagEntries int
	SetEntries int

	Consistency Policy
	Clear       ClearMode
}

// DefaultD is the paper's D-cache MAB configuration (2 tags × 8 set indices).
var DefaultD = Config{TagEntries: 2, SetEntries: 8}

// DefaultI is the paper's I-cache MAB configuration (2 tags × 16 set
// indices).
var DefaultI = Config{TagEntries: 2, SetEntries: 16}

func (c Config) clearMode() ClearMode {
	if c.Clear != ClearAuto {
		return c.Clear
	}
	if c.Consistency == PolicyPaper {
		return ClearAll
	}
	return ClearNone
}

// String names the configuration like the paper ("2x8").
func (c Config) String() string {
	return fmt.Sprintf("%dx%d", c.TagEntries, c.SetEntries)
}

// Lookup is the result of probing the MAB.
type Lookup struct {
	// InRange is false when the displacement exceeds the low adder's range
	// and the MAB must be bypassed.
	InRange bool
	// Hit reports a valid (tag,set) pair; Way is then the memoized way.
	Hit bool
	Way int
	// PredictedAddr is the line-aligned address the pair denotes; the
	// controllers use it to verify the memoized way against the cache.
	PredictedAddr uint32
}

// lowAdder is the MAB's address front end for one cache geometry: the
// displacement range check and the (key, cflag, set index) decomposition
// of the small adder over the offset and set bits. Every MAB of a
// geometry computes the same decomposition, so a controller driving
// several MABs computes it once per access.
type lowAdder struct {
	lowBits    uint // offset+set bits covered by the small adder (14)
	offsetBits uint
	lowMask    uint32
}

func newLowAdder(geo cache.Config) lowAdder {
	low := uint(geo.OffsetBits() + geo.SetBits())
	return lowAdder{lowBits: low, offsetBits: uint(geo.OffsetBits()), lowMask: 1<<low - 1}
}

// inRange reports whether disp fits the low adder: its upper bits must be
// all zeros or all ones (|disp| < 2^lowBits), the paper's §3.3 condition.
func (a lowAdder) inRange(disp int32) bool {
	hi := disp >> a.lowBits
	return hi == 0 || hi == -1
}

// key computes the tag-table key for (base, disp): the base's upper bits,
// the cflag from the low adder, and the set index of base+disp (always
// below the geometry's set count).
func (a lowAdder) key(base uint32, disp int32) (key uint32, cflag uint8, setIdx uint32) {
	low := base & a.lowMask
	dlow := uint32(disp) & a.lowMask
	sum := low + dlow
	carry := uint8(sum >> a.lowBits & 1)
	sign := uint8(0)
	if disp < 0 {
		sign = 1
	}
	return base >> a.lowBits, carry | sign<<1, (sum & a.lowMask) >> a.offsetBits
}

// MAB is the Memory Address Buffer.
type MAB struct {
	cfg Config
	lowAdder

	// The tag table is scanned: Nt is 1 to 4 in every configuration the
	// paper considers. Like the set columns below, rows fill in index
	// order and are never invalidated, so rows [0, tagFilled) are exactly
	// the valid ones.
	tags      []uint64 // tagEntry(key, cflag) per row
	tagUse    []uint64
	tagFilled int
	clock     uint64

	// The set-index table needs no scan. Columns fill in index order and
	// are never invalidated, so columns [0, setFilled) are exactly the
	// valid ones. setCol maps a set index to its column+1 (0: absent), one
	// entry per cache set. setLRU links the valid columns in a circular
	// recency list through a sentinel at index Ns: every use moves its
	// column to the front (after the sentinel), so the sentinel's
	// predecessor is the least recently used column. The sentinel makes
	// every move the same few stores, with no branch.
	setIdx    []uint32
	setCol    []int32
	setFilled int
	setLRU    []link

	// way[i*Ns+j] is the memoized way of pair (tag i, set j), or -1 when
	// the pair's vflag is clear.
	way []int8
}

// New builds a MAB for a cache with the given geometry.
func New(cfg Config, geo cache.Config) *MAB {
	if cfg.TagEntries <= 0 || cfg.SetEntries <= 0 {
		panic(fmt.Sprintf("core: bad MAB config %+v", cfg))
	}
	if err := geo.Validate(); err != nil {
		panic(err)
	}
	m := &MAB{
		cfg:      cfg,
		lowAdder: newLowAdder(geo),
		tags:     make([]uint64, cfg.TagEntries),
		tagUse:   make([]uint64, cfg.TagEntries),
		setIdx:   make([]uint32, cfg.SetEntries),
		setCol:   make([]int32, geo.Sets),
		setLRU:   make([]link, cfg.SetEntries+1),
		way:      make([]int8, cfg.TagEntries*cfg.SetEntries),
	}
	ns := int32(cfg.SetEntries)
	m.setLRU[ns] = link{prev: ns, next: ns}
	for k := range m.way {
		m.way[k] = -1
	}
	return m
}

// Config returns the MAB configuration.
func (m *MAB) Config() Config { return m.cfg }

// Characterize returns the circuit model (area, delay, active/sleep power)
// of this MAB's configuration, per Tables 1-3 of the paper.
func (m *MAB) Characterize() synth.Result {
	return synth.Characterize(m.cfg.TagEntries, m.cfg.SetEntries)
}

// InRange reports whether disp fits the low adder: its upper bits must be
// all zeros or all ones (|disp| < 2^lowBits), the paper's §3.3 condition.
func (m *MAB) InRange(disp int32) bool { return m.inRange(disp) }

// trueTag returns the physical cache tag the i-th tag entry denotes:
// key + carry (positive displacement) or key + carry - 1 (negative).
func (m *MAB) trueTag(i int) uint32 {
	e := m.tags[i]
	adj := uint32(e & 1)
	if e&2 != 0 {
		adj--
	}
	mask := uint32(1)<<(32-m.lowBits) - 1
	return (uint32(e>>2) + adj) & mask
}

// tagEntry packs a tag-table entry: the key — the base address's upper
// (32-lowBits) bits — above the 2-bit cflag (bit0 = carry, bit1 =
// displacement sign class), so one compare matches both.
func tagEntry(key uint32, cflag uint8) uint64 { return uint64(key)<<2 | uint64(cflag) }

// find resolves a decomposed access to its tag row and set column, each -1
// when absent.
func (m *MAB) find(key uint32, cflag uint8, setIdx uint32) (i, j int) {
	i = -1
	e := tagEntry(key, cflag)
	for t, k := range m.tags[:m.tagFilled] {
		if k == e {
			i = t
			break
		}
	}
	return i, int(m.setCol[setIdx]) - 1
}

func (m *MAB) lruTag() int {
	if m.tagFilled < len(m.tags) {
		return m.tagFilled
	}
	victim, oldest := 0, ^uint64(0)
	for i := range m.tags {
		if m.tagUse[i] < oldest {
			victim, oldest = i, m.tagUse[i]
		}
	}
	return victim
}

// link is one node of the set columns' recency list.
type link struct{ prev, next int32 }

// touchSet makes valid column j the most recently used.
func (m *MAB) touchSet(j int32) {
	l := m.setLRU
	p, n := l[j].prev, l[j].next
	l[p].next, l[n].prev = n, p
	m.pushSet(j)
}

// pushSet links column j in as the most recently used.
func (m *MAB) pushSet(j int32) {
	l := m.setLRU
	s := int32(len(l) - 1)
	first := l[s].next
	l[j] = link{prev: s, next: first}
	l[first].prev, l[s].next = j, j
}

// probeAt reports the pair (i, j) of a resolved access, counting a hit as
// a use of its tag row and set column.
func (m *MAB) probeAt(i, j int) (way int, hit bool) {
	if i < 0 || j < 0 {
		return 0, false
	}
	w := m.way[i*m.cfg.SetEntries+j]
	if w < 0 {
		return 0, false
	}
	m.clock++
	m.tagUse[i] = m.clock
	m.touchSet(int32(j))
	return int(w), true
}

// install memoizes way for the access resolved to (i, j) — either may be -1
// — following the four hit/miss cases of §3.3.
func (m *MAB) install(i, j int, key uint32, cflag uint8, setIdx uint32, way int) {
	ns := m.cfg.SetEntries
	m.clock++
	if i < 0 {
		// Replace the LRU tag row; all pairs of the old row die.
		i = m.lruTag()
		if i == m.tagFilled {
			m.tagFilled++
		}
		m.tags[i] = tagEntry(key, cflag)
		row := m.way[i*ns : (i+1)*ns]
		for s := range row {
			row[s] = -1
		}
	}
	switch {
	case j >= 0:
		m.touchSet(int32(j))
	case m.setFilled < ns:
		// Fill the next free column.
		j = m.setFilled
		m.setFilled++
		m.setIdx[j] = setIdx
		m.setCol[setIdx] = int32(j + 1)
		m.pushSet(int32(j))
	default:
		// Replace the LRU set column; all pairs of the old column die.
		j = int(m.setLRU[ns].prev)
		m.setCol[m.setIdx[j]] = 0
		m.setIdx[j] = setIdx
		m.setCol[setIdx] = int32(j + 1)
		for t := range m.tags {
			m.way[t*ns+j] = -1
		}
		m.touchSet(int32(j))
	}
	m.tagUse[i] = m.clock
	m.way[i*ns+j] = int8(way)
}

// Probe looks (base, disp) up without modifying anything except the LRU
// state on a hit (a hit is also a use).
func (m *MAB) Probe(base uint32, disp int32) Lookup {
	if !m.inRange(disp) {
		return Lookup{}
	}
	key, cflag, setIdx := m.key(base, disp)
	// Reconstruct the predicted address the way the hardware does: the low
	// bits come from the 14-bit adder, the tag from the base's upper bits
	// adjusted by carry and displacement sign. For in-range displacements
	// this equals base+disp — TestPredictedAddressProperty proves it.
	adj := uint32(cflag & 1)
	if cflag&2 != 0 {
		adj--
	}
	predLow := (base + uint32(disp)) & m.lowMask
	res := Lookup{InRange: true, PredictedAddr: (key+adj)<<m.lowBits | predLow}
	res.Way, res.Hit = m.probeAt(m.find(key, cflag, setIdx))
	return res
}

// Update installs (base, disp) → way after a full cache access, following
// the four hit/miss cases of §3.3.
func (m *MAB) Update(base uint32, disp int32, way int) {
	if !m.inRange(disp) {
		return
	}
	key, cflag, setIdx := m.key(base, disp)
	i, j := m.find(key, cflag, setIdx)
	m.install(i, j, key, cflag, setIdx, way)
}

// Invalidate clears the pair denoting (base, disp) if present. Used when a
// verified MAB hit turns out stale under PolicyPaper.
func (m *MAB) Invalidate(base uint32, disp int32) {
	if !m.inRange(disp) {
		return
	}
	if i, j := m.find(m.key(base, disp)); i >= 0 && j >= 0 {
		m.clearPair(i, j)
	}
}

// clearPair clears the vflag of the resolved pair (i, j).
func (m *MAB) clearPair(i, j int) { m.way[i*m.cfg.SetEntries+j] = -1 }

// OnBypass applies the configured conservative clearing when an access
// cannot be tracked by the MAB (large displacement or indirect jump).
func (m *MAB) OnBypass() {
	switch m.cfg.clearMode() {
	case ClearAll:
		for k := range m.way {
			m.way[k] = -1
		}
	case ClearLRURow:
		ns := m.cfg.SetEntries
		row := m.way[m.lruTag()*ns:][:ns]
		for s := range row {
			row[s] = -1
		}
	}
}

// OnEviction clears pairs that denote the evicted line. Wired to
// cache.Cache.OnEvict under PolicyEvictInvalidate.
func (m *MAB) OnEviction(ev cache.Eviction) {
	j := int(m.setCol[ev.Set]) - 1
	if j < 0 {
		return
	}
	ns := m.cfg.SetEntries
	for i := range m.tags[:m.tagFilled] {
		if m.way[i*ns+j] >= 0 && m.trueTag(i) == ev.Tag {
			m.way[i*ns+j] = -1
		}
	}
}

// ValidPairs returns the number of currently valid (tag,set) pairs.
func (m *MAB) ValidPairs() int {
	n := 0
	for _, w := range m.way {
		if w >= 0 {
			n++
		}
	}
	return n
}

// CheckInvariant verifies MAB ⊆ cache: every valid pair's line must be
// resident at the memoized way. It returns the number of violating pairs.
func (m *MAB) CheckInvariant(c *cache.Cache) int {
	bad := 0
	ns := m.cfg.SetEntries
	for k, w := range m.way {
		if w < 0 {
			continue
		}
		i, j := k/ns, k%ns
		tag, valid := c.TagAt(m.setIdx[j], int(w))
		if !valid || tag != m.trueTag(i) {
			bad++
		}
	}
	return bad
}
