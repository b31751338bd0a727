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

// MAB is the Memory Address Buffer.
type MAB struct {
	cfg        Config
	geo        cache.Config
	lowBits    uint // offset+set bits covered by the small adder (14)
	offsetBits uint
	lowMask    uint32

	// The tag and set-index tables are stored column-wise (structure of
	// arrays): Probe scans both tables on every single access, and keeping
	// the compared columns contiguous lets one scan touch one cache line
	// instead of one struct per entry.
	tagKey   []uint32 // upper (32-lowBits) bits of the base address
	tagCflag []uint8  // bit0 = carry, bit1 = displacement sign class
	tagValid []bool
	tagUse   []uint64
	setIdx   []uint32
	setValid []bool
	setUse   []uint64

	vflag [][]bool
	way   [][]int8
	clock uint64

	// Slot resolution of the most recent Probe, so the Update that follows
	// a missed probe (the controllers' hot path) skips both table scans.
	// Only valid until the tables' occupancy changes: Update consumes it.
	lastKey    uint32
	lastCflag  uint8
	lastSetIdx uint32
	lastI      int
	lastJ      int
	lastValid  bool
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
		cfg:        cfg,
		geo:        geo,
		lowBits:    uint(geo.OffsetBits() + geo.SetBits()),
		offsetBits: uint(geo.OffsetBits()),
		tagKey:     make([]uint32, cfg.TagEntries),
		tagCflag:   make([]uint8, cfg.TagEntries),
		tagValid:   make([]bool, cfg.TagEntries),
		tagUse:     make([]uint64, cfg.TagEntries),
		setIdx:     make([]uint32, cfg.SetEntries),
		setValid:   make([]bool, cfg.SetEntries),
		setUse:     make([]uint64, cfg.SetEntries),
		vflag:      make([][]bool, cfg.TagEntries),
		way:        make([][]int8, cfg.TagEntries),
	}
	m.lowMask = 1<<m.lowBits - 1
	for i := range m.vflag {
		m.vflag[i] = make([]bool, cfg.SetEntries)
		m.way[i] = make([]int8, cfg.SetEntries)
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
func (m *MAB) InRange(disp int32) bool {
	hi := disp >> m.lowBits
	return hi == 0 || hi == -1
}

// key computes the tag-table key for (base, disp): the base's upper bits and
// the cflag from the low adder.
func (m *MAB) key(base uint32, disp int32) (key uint32, cflag uint8, setIdx uint32) {
	low := base & m.lowMask
	dlow := uint32(disp) & m.lowMask
	sum := low + dlow
	carry := uint8(sum >> m.lowBits & 1)
	sign := uint8(0)
	if disp < 0 {
		sign = 1
	}
	return base >> m.lowBits, carry | sign<<1, (sum & m.lowMask) >> m.offsetBits
}

// trueTag returns the physical cache tag the i-th tag entry denotes:
// key + carry (positive displacement) or key + carry - 1 (negative).
func (m *MAB) trueTag(i int) uint32 {
	adj := uint32(m.tagCflag[i] & 1)
	if m.tagCflag[i]&2 != 0 {
		adj--
	}
	mask := uint32(1)<<(32-m.lowBits) - 1
	return (m.tagKey[i] + adj) & mask
}

func (m *MAB) findTag(key uint32, cflag uint8) int {
	for i, k := range m.tagKey {
		if k == key && m.tagValid[i] && m.tagCflag[i] == cflag {
			return i
		}
	}
	return -1
}

func (m *MAB) findSet(idx uint32) int {
	for j, v := range m.setIdx {
		if v == idx && m.setValid[j] {
			return j
		}
	}
	return -1
}

func (m *MAB) lruTag() int {
	victim, oldest := 0, ^uint64(0)
	for i := range m.tagKey {
		if !m.tagValid[i] {
			return i
		}
		if m.tagUse[i] < oldest {
			victim, oldest = i, m.tagUse[i]
		}
	}
	return victim
}

func (m *MAB) lruSet() int {
	victim, oldest := 0, ^uint64(0)
	for j := range m.setIdx {
		if !m.setValid[j] {
			return j
		}
		if m.setUse[j] < oldest {
			victim, oldest = j, m.setUse[j]
		}
	}
	return victim
}

// Probe looks (base, disp) up without modifying anything except the LRU
// clocks on a hit (a hit is also a use).
func (m *MAB) Probe(base uint32, disp int32) Lookup {
	if !m.InRange(disp) {
		return Lookup{}
	}
	key, cflag, _ := m.key(base, disp)
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
	res.Way, res.Hit = m.probeFast(base, disp)
	return res
}

// probeFast is Probe stripped for the controllers' per-event hot path: the
// caller has already checked InRange, and nothing on the hot path consumes
// the predicted address (the controllers verify the memoized way against
// the final address the trace already carries), so neither is recomputed
// here.
func (m *MAB) probeFast(base uint32, disp int32) (way int, hit bool) {
	key, cflag, setIdx := m.key(base, disp)
	i := m.findTag(key, cflag)
	j := m.findSet(setIdx)
	m.lastKey, m.lastCflag, m.lastSetIdx = key, cflag, setIdx
	m.lastI, m.lastJ, m.lastValid = i, j, true
	if i >= 0 && j >= 0 && m.vflag[i][j] {
		m.clock++
		m.tagUse[i] = m.clock
		m.setUse[j] = m.clock
		return int(m.way[i][j]), true
	}
	return 0, false
}

// Update installs (base, disp) → way after a full cache access, following
// the four hit/miss cases of §3.3.
func (m *MAB) Update(base uint32, disp int32, way int) {
	if !m.InRange(disp) {
		return
	}
	key, cflag, setIdx := m.key(base, disp)
	var i, j int
	if m.lastValid && m.lastKey == key && m.lastCflag == cflag && m.lastSetIdx == setIdx {
		// Between the probe and this update only vflag bits can have
		// changed (eviction invalidations), never table occupancy, so the
		// memoized slots are still the scan's answer.
		i, j = m.lastI, m.lastJ
	} else {
		i, j = m.findTag(key, cflag), m.findSet(setIdx)
	}
	m.lastValid = false
	m.clock++
	if i < 0 {
		// Replace the LRU tag row; all pairs of the old row die.
		i = m.lruTag()
		m.tagKey[i], m.tagCflag[i], m.tagValid[i], m.tagUse[i] = key, cflag, true, 0
		for s := range m.vflag[i] {
			m.vflag[i][s] = false
		}
	}
	if j < 0 {
		// Replace the LRU set column; all pairs of the old column die.
		j = m.lruSet()
		m.setIdx[j], m.setValid[j], m.setUse[j] = setIdx, true, 0
		for t := range m.vflag {
			m.vflag[t][j] = false
		}
	}
	m.tagUse[i] = m.clock
	m.setUse[j] = m.clock
	m.vflag[i][j] = true
	m.way[i][j] = int8(way)
}

// Invalidate clears the pair denoting (base, disp) if present. Used when a
// verified MAB hit turns out stale under PolicyPaper.
func (m *MAB) Invalidate(base uint32, disp int32) {
	if !m.InRange(disp) {
		return
	}
	key, cflag, setIdx := m.key(base, disp)
	if i, j := m.findTag(key, cflag), m.findSet(setIdx); i >= 0 && j >= 0 {
		m.vflag[i][j] = false
	}
}

// OnBypass applies the configured conservative clearing when an access
// cannot be tracked by the MAB (large displacement or indirect jump).
func (m *MAB) OnBypass() {
	switch m.cfg.clearMode() {
	case ClearAll:
		for i := range m.vflag {
			for j := range m.vflag[i] {
				m.vflag[i][j] = false
			}
		}
	case ClearLRURow:
		i := m.lruTag()
		for j := range m.vflag[i] {
			m.vflag[i][j] = false
		}
	}
}

// OnEviction clears pairs that denote the evicted line. Wired to
// cache.Cache.OnEvict under PolicyEvictInvalidate.
func (m *MAB) OnEviction(ev cache.Eviction) {
	for j := range m.setIdx {
		if !m.setValid[j] || m.setIdx[j] != ev.Set {
			continue
		}
		for i := range m.tagKey {
			if m.vflag[i][j] && m.tagValid[i] && m.trueTag(i) == ev.Tag {
				m.vflag[i][j] = false
			}
		}
	}
}

// ValidPairs returns the number of currently valid (tag,set) pairs.
func (m *MAB) ValidPairs() int {
	n := 0
	for i := range m.vflag {
		for j := range m.vflag[i] {
			if m.vflag[i][j] {
				n++
			}
		}
	}
	return n
}

// CheckInvariant verifies MAB ⊆ cache: every valid pair's line must be
// resident at the memoized way. It returns the number of violating pairs.
func (m *MAB) CheckInvariant(c *cache.Cache) int {
	bad := 0
	for i := range m.vflag {
		for j := range m.vflag[i] {
			if !m.vflag[i][j] {
				continue
			}
			tag, valid := c.TagAt(m.setIdx[j], int(m.way[i][j]))
			if !valid || tag != m.trueTag(i) {
				bad++
			}
		}
	}
	return bad
}
