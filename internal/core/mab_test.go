package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"waymemo/internal/cache"
	"waymemo/internal/trace"
)

var geo = cache.FRV32K

// addrOf builds an address from (tag, set, offset) under FRV32K geometry.
func addrOf(tag, set, off uint32) uint32 {
	return tag<<14 | set<<5 | off
}

func TestInRange(t *testing.T) {
	m := New(DefaultD, geo)
	for _, d := range []int32{0, 1, -1, 16383, -16384, 8, 100} {
		if !m.InRange(d) {
			t.Errorf("disp %d should be in range", d)
		}
	}
	for _, d := range []int32{16384, -16385, 1 << 20, -(1 << 20)} {
		if m.InRange(d) {
			t.Errorf("disp %d should be out of range", d)
		}
	}
}

// TestPredictedAddressProperty is the cflag-arithmetic property at the heart
// of §3.1: the tag predicted from the base's upper 18 bits, the carry of the
// 14-bit adder and the displacement sign must equal the real upper bits of
// base+disp for every in-range displacement.
func TestPredictedAddressProperty(t *testing.T) {
	m := New(DefaultD, geo)
	f := func(base uint32, rawDisp int32) bool {
		disp := rawDisp % (1 << 14) // force in range
		res := m.Probe(base, disp)
		if !res.InRange {
			return false
		}
		return res.PredictedAddr == base+uint32(disp)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20000}); err != nil {
		t.Fatal(err)
	}
}

func TestProbeMissThenUpdateHit(t *testing.T) {
	m := New(DefaultD, geo)
	base, disp := addrOf(100, 7, 0), int32(24)
	if m.Probe(base, disp).Hit {
		t.Fatal("hit in empty MAB")
	}
	m.Update(base, disp, 1)
	res := m.Probe(base, disp)
	if !res.Hit || res.Way != 1 {
		t.Fatalf("after update: %+v", res)
	}
	if m.ValidPairs() != 1 {
		t.Fatalf("valid pairs = %d", m.ValidPairs())
	}
}

// TestSameLineDifferentKeyMisses documents that the MAB keys on the base
// address, not the final tag: two expressions of the same address with
// different (base, cflag) occupy different entries.
func TestSameLineDifferentKeyMisses(t *testing.T) {
	m := New(DefaultD, geo)
	target := addrOf(100, 0, 8)
	m.Update(target, 0, 0) // key = (base18 100, carry 0, positive)
	// Same target from a base 32 bytes below: the base sits in the previous
	// 16KB region (base18 99) and the add carries, so the key is
	// (99, carry 1, positive) — same physical tag, different MAB entry.
	res := m.Probe(target-32, 32)
	if res.PredictedAddr != target {
		t.Fatalf("prediction broken: %#x", res.PredictedAddr)
	}
	if res.Hit {
		t.Fatal("distinct key unexpectedly hit")
	}
	// ...whereas probing with the exact installing key hits.
	if !m.Probe(target, 0).Hit {
		t.Fatal("installing key missed")
	}
}

// TestCrossProduct checks that Nt×Ns pairs are addressable: with 2 tags and
// 8 sets, 16 addresses can be memoized simultaneously (the paper's example).
func TestCrossProduct(t *testing.T) {
	m := New(Config{TagEntries: 2, SetEntries: 8}, geo)
	for ti := uint32(0); ti < 2; ti++ {
		for si := uint32(0); si < 8; si++ {
			m.Update(addrOf(100+ti, si, 0), 0, int(ti)&1)
		}
	}
	if m.ValidPairs() != 16 {
		t.Fatalf("valid pairs = %d, want 16", m.ValidPairs())
	}
	for ti := uint32(0); ti < 2; ti++ {
		for si := uint32(0); si < 8; si++ {
			res := m.Probe(addrOf(100+ti, si, 0), 0)
			if !res.Hit || res.Way != int(ti)&1 {
				t.Fatalf("pair (%d,%d): %+v", ti, si, res)
			}
		}
	}
}

// TestUpdateCase2 verifies that replacing a tag row kills the row's pairs
// (§3.3 case 2).
func TestUpdateCase2(t *testing.T) {
	m := New(Config{TagEntries: 2, SetEntries: 8}, geo)
	m.Update(addrOf(1, 0, 0), 0, 0)
	m.Update(addrOf(2, 1, 0), 0, 0)
	m.Update(addrOf(2, 2, 0), 0, 0) // row for tag 2 now has two pairs
	// Tag 3 misses, set 1 hits: replaces LRU row (tag 1).
	m.Update(addrOf(3, 1, 0), 0, 1)
	if m.Probe(addrOf(1, 0, 0), 0).Hit {
		t.Fatal("pair of replaced row survived")
	}
	if !m.Probe(addrOf(3, 1, 0), 0).Hit || !m.Probe(addrOf(2, 2, 0), 0).Hit {
		t.Fatal("surviving pairs lost")
	}
}

// TestUpdateCase3 verifies that replacing a set column kills the column's
// pairs (§3.3 case 3).
func TestUpdateCase3(t *testing.T) {
	m := New(Config{TagEntries: 2, SetEntries: 2}, geo)
	m.Update(addrOf(1, 10, 0), 0, 0)
	m.Update(addrOf(2, 11, 0), 0, 0)
	m.Update(addrOf(1, 11, 0), 0, 0) // refresh set 11 and tag 1
	// Set 12 misses, tag 1 hits: replaces LRU set column (10).
	m.Update(addrOf(1, 12, 0), 0, 1)
	if m.Probe(addrOf(1, 10, 0), 0).Hit {
		t.Fatal("pair of replaced column survived")
	}
	if !m.Probe(addrOf(2, 11, 0), 0).Hit {
		t.Fatal("unrelated pair lost")
	}
}

func TestBypassClearModes(t *testing.T) {
	all := New(Config{TagEntries: 2, SetEntries: 4, Consistency: PolicyPaper, Clear: ClearAll}, geo)
	all.Update(addrOf(1, 0, 0), 0, 0)
	all.Update(addrOf(2, 1, 0), 0, 0)
	all.OnBypass()
	if all.ValidPairs() != 0 {
		t.Fatalf("ClearAll left %d pairs", all.ValidPairs())
	}

	row := New(Config{TagEntries: 2, SetEntries: 4, Consistency: PolicyPaper, Clear: ClearLRURow}, geo)
	row.Update(addrOf(1, 0, 0), 0, 0) // tag 1 is LRU after next update
	row.Update(addrOf(2, 1, 0), 0, 0)
	row.OnBypass()
	if row.Probe(addrOf(1, 0, 0), 0).Hit {
		t.Fatal("LRU row survived ClearLRURow")
	}
	if !row.Probe(addrOf(2, 1, 0), 0).Hit {
		t.Fatal("MRU row cleared by ClearLRURow")
	}

	none := New(Config{TagEntries: 2, SetEntries: 4, Clear: ClearNone}, geo)
	none.Update(addrOf(1, 0, 0), 0, 0)
	none.OnBypass()
	if none.ValidPairs() != 1 {
		t.Fatal("ClearNone cleared")
	}
}

func TestOnEviction(t *testing.T) {
	m := New(DefaultD, geo)
	// Install with a negative displacement so the stored key differs from
	// the true tag (tests the cflag adjustment in the reverse match).
	target := addrOf(100, 7, 0)
	base := target + 16 // key base18 = 100, disp = -16 (borrow: carry=1,sign=1 → adj 0)
	m.Update(base, -16, 1)
	if !m.Probe(base, -16).Hit {
		t.Fatal("setup probe failed")
	}
	// Evicting a different tag in the same set must not clear it.
	m.OnEviction(cache.Eviction{Tag: 101, Set: 7, Way: 1})
	if !m.Probe(base, -16).Hit {
		t.Fatal("unrelated eviction cleared pair")
	}
	// Evicting the true line clears it.
	m.OnEviction(cache.Eviction{Tag: 100, Set: 7, Way: 1})
	if m.Probe(base, -16).Hit {
		t.Fatal("pair survived its line's eviction")
	}
}

// TestNegativeDisplacementBorrow exercises the sign/carry corner: base just
// above a 16KB boundary with a negative displacement crossing it.
func TestNegativeDisplacementBorrow(t *testing.T) {
	m := New(DefaultD, geo)
	base := addrOf(100, 0, 8) // low bits small: borrow guaranteed
	disp := int32(-32)
	res := m.Probe(base, disp)
	if !res.InRange || res.PredictedAddr != base-32 {
		t.Fatalf("predicted %#x want %#x", res.PredictedAddr, base-32)
	}
	m.Update(base, disp, 0)
	if !m.Probe(base, disp).Hit {
		t.Fatal("borrow key did not round trip")
	}
}

// TestPaperPolicyViolationScenario reproduces the interleaving described in
// ARCHITECTURE.md ("Known deviations from the paper"): with Nt equal to the cache associativity, the paper's pure LRU
// rules let a valid MAB pair outlive its cache line. The sound policy
// (evict-invalidate) keeps the invariant.
func TestPaperPolicyViolationScenario(t *testing.T) {
	run := func(policy Policy) (*DController, int) {
		d := NewDController(geo, Config{TagEntries: 2, SetEntries: 8, Consistency: policy})
		send := func(tag, set uint32) {
			addr := addrOf(tag, set, 0)
			d.OnData(trace.DataEvent{Addr: addr, Base: addr, Disp: 0, Size: 4})
		}
		send(1, 7) // line (1,7) cached; MAB rows {1}
		send(2, 7) // set 7 = {1,2}, line 1 LRU; MAB rows {1,2}
		send(1, 9) // row 1 refreshed (other set); set 7 LRU order unchanged
		send(3, 7) // evicts line (1,7); MAB replaces LRU row 2
		return d, d.MAB.CheckInvariant(d.Cache)
	}
	if _, bad := run(PolicyPaper); bad == 0 {
		t.Fatal("expected an invariant violation under the paper policy")
	}
	d, bad := run(PolicyEvictInvalidate)
	if bad != 0 {
		t.Fatalf("sound policy violated the invariant (%d pairs)", bad)
	}
	// And the stale pair must not produce a wrong-way hit afterwards.
	addr := addrOf(1, 7, 0)
	d.OnData(trace.DataEvent{Addr: addr, Base: addr, Disp: 0, Size: 4})
	if d.Stats.Violations != 0 {
		t.Fatalf("violations under sound policy: %d", d.Stats.Violations)
	}
}

// TestInvariantUnderRandomStream hammers the D controller with random
// accesses and checks MAB ⊆ cache continuously under the sound policy, and
// that the MAB never changes functional cache behaviour (same hits/misses as
// a plain cache).
func TestInvariantUnderRandomStream(t *testing.T) {
	small := cache.Config{Sets: 16, Ways: 2, LineBytes: 32} // high conflict pressure
	d := NewDController(small, Config{TagEntries: 2, SetEntries: 4})
	plain := cache.New(small)
	var plainHits, plainMisses uint64
	r := rand.New(rand.NewSource(11))
	bases := make([]uint32, 8)
	for i := range bases {
		bases[i] = uint32(r.Intn(1<<20) * 4)
	}
	for i := 0; i < 200000; i++ {
		base := bases[r.Intn(len(bases))]
		disp := int32(r.Intn(1<<15) - 1<<14) // mostly in range, some out
		addr := base + uint32(disp)
		ev := trace.DataEvent{Addr: addr, Base: base, Disp: disp, Store: r.Intn(3) == 0, Size: 4}
		d.OnData(ev)
		if way, hit := plain.Lookup(addr); hit {
			plainHits++
			plain.Touch(addr, way)
			if ev.Store {
				plain.MarkDirty(addr, way)
			}
		} else {
			plainMisses++
			plain.Fill(addr)
		}
		if i%1000 == 0 {
			if bad := d.MAB.CheckInvariant(d.Cache); bad != 0 {
				t.Fatalf("invariant violated at access %d: %d pairs", i, bad)
			}
		}
	}
	if d.Stats.Violations != 0 {
		t.Fatalf("way violations: %d", d.Stats.Violations)
	}
	if d.Stats.Hits != plainHits || d.Stats.Misses != plainMisses {
		t.Fatalf("functional divergence: MAB %d/%d vs plain %d/%d",
			d.Stats.Hits, d.Stats.Misses, plainHits, plainMisses)
	}
	if d.Stats.MABHits == 0 {
		t.Fatal("MAB never hit; stream not exercising memoization")
	}
}

// TestPaperPolicyViolationsAreRare runs the same stream under the paper
// policy and checks that violations, while possible, stay rare (the paper's
// argument is sound for the overwhelming majority of interleavings).
func TestPaperPolicyViolationsAreRare(t *testing.T) {
	small := cache.Config{Sets: 16, Ways: 2, LineBytes: 32}
	d := NewDController(small, Config{TagEntries: 2, SetEntries: 4, Consistency: PolicyPaper})
	r := rand.New(rand.NewSource(11))
	bases := make([]uint32, 8)
	for i := range bases {
		bases[i] = uint32(r.Intn(1<<20) * 4)
	}
	const n = 200000
	for i := 0; i < n; i++ {
		base := bases[r.Intn(len(bases))]
		disp := int32(r.Intn(1<<15) - 1<<14)
		d.OnData(trace.DataEvent{Addr: base + uint32(disp), Base: base, Disp: disp, Store: r.Intn(3) == 0, Size: 4})
	}
	if rate := float64(d.Stats.Violations) / float64(n); rate > 0.01 {
		t.Fatalf("violation rate %.4f implausibly high", rate)
	}
}

// scanMAB is the MAB as it was before its set table became O(1): every
// table is searched by a linear scan and the LRU victims are found by
// scanning per-entry use stamps. It is the reference TestMABAgainstScan
// holds the production tables to, operation by operation.
type scanMAB struct {
	cfg     Config
	lowBits uint
	offBits uint
	lowMask uint32

	tagKey   []uint32
	tagCflag []uint8
	tagValid []bool
	tagUse   []uint64
	setIdx   []uint32
	setValid []bool
	setUse   []uint64
	vflag    [][]bool
	way      [][]int8
	clock    uint64
}

func newScanMAB(cfg Config, geo cache.Config) *scanMAB {
	m := &scanMAB{
		cfg:      cfg,
		lowBits:  uint(geo.OffsetBits() + geo.SetBits()),
		offBits:  uint(geo.OffsetBits()),
		tagKey:   make([]uint32, cfg.TagEntries),
		tagCflag: make([]uint8, cfg.TagEntries),
		tagValid: make([]bool, cfg.TagEntries),
		tagUse:   make([]uint64, cfg.TagEntries),
		setIdx:   make([]uint32, cfg.SetEntries),
		setValid: make([]bool, cfg.SetEntries),
		setUse:   make([]uint64, cfg.SetEntries),
		vflag:    make([][]bool, cfg.TagEntries),
		way:      make([][]int8, cfg.TagEntries),
	}
	m.lowMask = 1<<m.lowBits - 1
	for i := range m.vflag {
		m.vflag[i] = make([]bool, cfg.SetEntries)
		m.way[i] = make([]int8, cfg.SetEntries)
	}
	return m
}

func (m *scanMAB) inRange(disp int32) bool {
	hi := disp >> m.lowBits
	return hi == 0 || hi == -1
}

func (m *scanMAB) key(base uint32, disp int32) (uint32, uint8, uint32) {
	sum := base&m.lowMask + uint32(disp)&m.lowMask
	cflag := uint8(sum >> m.lowBits & 1)
	if disp < 0 {
		cflag |= 2
	}
	return base >> m.lowBits, cflag, (sum & m.lowMask) >> m.offBits
}

func (m *scanMAB) trueTag(i int) uint32 {
	adj := uint32(m.tagCflag[i] & 1)
	if m.tagCflag[i]&2 != 0 {
		adj--
	}
	return (m.tagKey[i] + adj) & (uint32(1)<<(32-m.lowBits) - 1)
}

func (m *scanMAB) findTag(key uint32, cflag uint8) int {
	for i, k := range m.tagKey {
		if k == key && m.tagValid[i] && m.tagCflag[i] == cflag {
			return i
		}
	}
	return -1
}

func (m *scanMAB) findSet(idx uint32) int {
	for j, v := range m.setIdx {
		if v == idx && m.setValid[j] {
			return j
		}
	}
	return -1
}

func (m *scanMAB) lruTag() int {
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

func (m *scanMAB) lruSet() int {
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

func (m *scanMAB) Probe(base uint32, disp int32) Lookup {
	if !m.inRange(disp) {
		return Lookup{}
	}
	key, cflag, setIdx := m.key(base, disp)
	adj := uint32(cflag & 1)
	if cflag&2 != 0 {
		adj--
	}
	res := Lookup{InRange: true,
		PredictedAddr: (key+adj)<<m.lowBits | (base+uint32(disp))&m.lowMask}
	i, j := m.findTag(key, cflag), m.findSet(setIdx)
	if i >= 0 && j >= 0 && m.vflag[i][j] {
		m.clock++
		m.tagUse[i], m.setUse[j] = m.clock, m.clock
		res.Hit, res.Way = true, int(m.way[i][j])
	}
	return res
}

func (m *scanMAB) Update(base uint32, disp int32, way int) {
	if !m.inRange(disp) {
		return
	}
	key, cflag, setIdx := m.key(base, disp)
	i, j := m.findTag(key, cflag), m.findSet(setIdx)
	m.clock++
	if i < 0 {
		i = m.lruTag()
		m.tagKey[i], m.tagCflag[i], m.tagValid[i] = key, cflag, true
		for s := range m.vflag[i] {
			m.vflag[i][s] = false
		}
	}
	if j < 0 {
		j = m.lruSet()
		m.setIdx[j], m.setValid[j] = setIdx, true
		for t := range m.vflag {
			m.vflag[t][j] = false
		}
	}
	m.tagUse[i], m.setUse[j] = m.clock, m.clock
	m.vflag[i][j] = true
	m.way[i][j] = int8(way)
}

func (m *scanMAB) Invalidate(base uint32, disp int32) {
	if !m.inRange(disp) {
		return
	}
	key, cflag, setIdx := m.key(base, disp)
	if i, j := m.findTag(key, cflag), m.findSet(setIdx); i >= 0 && j >= 0 {
		m.vflag[i][j] = false
	}
}

func (m *scanMAB) OnBypass() {
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

func (m *scanMAB) OnEviction(ev cache.Eviction) {
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

func (m *scanMAB) ValidPairs() int {
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

func (m *scanMAB) CheckInvariant(c *cache.Cache) int {
	bad := 0
	for i := range m.vflag {
		for j := range m.vflag[i] {
			if !m.vflag[i][j] {
				continue
			}
			if tag, valid := c.TagAt(m.setIdx[j], int(m.way[i][j])); !valid || tag != m.trueTag(i) {
				bad++
			}
		}
	}
	return bad
}

// TestMABAgainstScan drives the O(1) MAB and the linear-scan reference
// through the same random operation stream — probes, updates,
// invalidations, evictions of both memoized and unrelated lines, and
// bypass clears — for every clear mode and several table shapes, and
// demands the same answer from every operation. A side cache filled from
// the same address pool gives CheckInvariant real, shifting contents.
func TestMABAgainstScan(t *testing.T) {
	geos := []cache.Config{cache.FRV32K, {Sets: 16, Ways: 2, LineBytes: 16}, {Sets: 64, Ways: 4, LineBytes: 64}}
	shapes := []Config{
		{TagEntries: 1, SetEntries: 1},
		{TagEntries: 1, SetEntries: 4},
		{TagEntries: 2, SetEntries: 8},
		{TagEntries: 2, SetEntries: 32},
		{TagEntries: 4, SetEntries: 16},
	}
	modes := []ClearMode{ClearAll, ClearLRURow, ClearNone}
	steps := 40000
	if testing.Short() {
		steps = 8000
	}
	for gi, g := range geos {
		for _, shape := range shapes {
			for _, mode := range modes {
				cfg := shape
				cfg.Consistency, cfg.Clear = PolicyPaper, mode
				got, want := New(cfg, g), newScanMAB(cfg, g)
				c := cache.New(g)
				r := rand.New(rand.NewSource(int64(gi*1000 + cfg.TagEntries*100 + cfg.SetEntries*3 + int(mode))))
				// Few bases keep tag rows alive long enough for probes to
				// hit, so the set columns' recency order decides victims.
				bases := make([]uint32, 3)
				for i := range bases {
					bases[i] = uint32(r.Intn(1 << 22))
				}
				disps := []int32{0, 4, -4, 64, -64, 200, -200, 520, -1000, 8192, -8192, 20000, 1 << 20}
				for step := 0; step < steps; step++ {
					base := bases[r.Intn(len(bases))]
					disp := disps[r.Intn(len(disps))]
					addr := base + uint32(disp)
					switch op := r.Intn(20); {
					case op < 9:
						if gp, wp := got.Probe(base, disp), want.Probe(base, disp); gp != wp {
							t.Fatalf("%v %v step %d: Probe(%#x,%d) = %+v, reference %+v", g, cfg, step, base, disp, gp, wp)
						}
					case op < 15:
						way := r.Intn(g.Ways)
						got.Update(base, disp, way)
						want.Update(base, disp, way)
						if _, ev := c.Fill(addr); ev.Way >= 0 && r.Intn(2) == 0 {
							got.OnEviction(ev)
							want.OnEviction(ev)
						}
					case op < 17:
						got.Invalidate(base, disp)
						want.Invalidate(base, disp)
					case op < 19:
						ev := cache.Eviction{Tag: g.Tag(addr), Set: g.Set(addr), Way: r.Intn(g.Ways)}
						if r.Intn(3) == 0 {
							ev.Tag++ // an unrelated line of the same set
						}
						got.OnEviction(ev)
						want.OnEviction(ev)
					default:
						got.OnBypass()
						want.OnBypass()
					}
					if gv, wv := got.ValidPairs(), want.ValidPairs(); gv != wv {
						t.Fatalf("%v %v step %d: %d valid pairs, reference %d", g, cfg, step, gv, wv)
					}
					if gb, wb := got.CheckInvariant(c), want.CheckInvariant(c); gb != wb {
						t.Fatalf("%v %v step %d: CheckInvariant %d, reference %d", g, cfg, step, gb, wb)
					}
				}
			}
		}
	}
}
