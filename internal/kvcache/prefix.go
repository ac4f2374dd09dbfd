// Shared-prefix block caching with a tiered CPU offload path.
//
// Requests that declare a prefix key (their traffic class) share the
// leading page-aligned portion of their prompt: the KV pages for those
// tokens live in reference-counted prefix blocks rather than in the
// owning sequence. Blocks form one chain per key — a branch of the
// shared-prefix tree — and each block's identity is the hash of its
// token-range lineage (the chain of hashes from the key root), so equal
// hashes mean equal cached content by construction.
//
// Blocks are acquired on admit and released on sequence completion.
// A block whose refcount drops to zero stays on device (it is exactly
// the reusable cache) until memory pressure spills it: under the tiered
// mode spilled blocks move to a bounded host tier and are reloaded over
// the host link on the next hit; without a tier they are dropped and the
// next request recomputes them.
package kvcache

import (
	"fmt"

	"repro/internal/obs"
)

// PrefixMode selects shared-prefix block caching.
type PrefixMode int

const (
	// PrefixOff disables prefix caching (the default; every request pays
	// full prefill).
	PrefixOff PrefixMode = iota
	// PrefixDevice caches prefix blocks in device memory only; blocks
	// spilled under memory pressure are dropped.
	PrefixDevice
	// PrefixTiered spills idle prefix blocks to host memory and reloads
	// them over the host link on the next hit.
	PrefixTiered
)

func (p PrefixMode) String() string {
	switch p {
	case PrefixDevice:
		return "gpu"
	case PrefixTiered:
		return "tiered"
	default:
		return "off"
	}
}

type blockState int

const (
	blockDropped  blockState = iota // no memory anywhere; recomputed on next use
	blockResident                   // holds one device page
	blockHost                       // spilled to the host tier (one page of host bytes)
)

// prefixBlock is one page-sized span of a shared prefix chain.
type prefixBlock struct {
	key     string
	index   int    // position in the chain, covering tokens [index*PageTokens, (index+1)*PageTokens)
	hash    uint64 // token-range lineage hash (root = key hash, child = hash(parent, index))
	state   blockState
	refcnt  int // sequences currently holding this block; spill only at zero
	lastUse int // admission stamp of the last acquire, for LRU spill order
	mark    int // stamp of the in-flight admit that needs this block (spill exclusion)
}

// prefixGroup is the chain of blocks for one prefix key.
type prefixGroup struct {
	key    string
	root   uint64 // lineage hash root: the key hash
	blocks []*prefixBlock
}

const (
	fnvOffset64 uint64 = 14695981039346656037
	fnvPrime64  uint64 = 1099511628211
)

// keyHash digests a prefix key into the root of its lineage chain.
func keyHash(key string) uint64 {
	h := fnvOffset64
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= fnvPrime64
	}
	return h
}

// lineageHash derives a block's identity from its parent's hash and its
// chain index.
func lineageHash(parent uint64, index int) uint64 {
	h := parent
	v := uint64(index)
	for i := 0; i < 8; i++ {
		h ^= (v >> (8 * i)) & 0xff
		h *= fnvPrime64
	}
	return h
}

// PrefixAdmit reports what AdmitWithPrefix reused, created, and moved.
type PrefixAdmit struct {
	CachedTokens int // prefix tokens served from cache instead of prefill
	NewTokens    int // prefix tokens newly published for later requests

	ReloadOps   int   // blocks restored host -> device for this admit
	ReloadBytes int64 // bytes those restores moved over the host link
	SpillOps    int   // blocks spilled device -> host to make room
	SpillBytes  int64 // bytes those spills moved over the host link
}

// alignedPrefix returns the page-aligned shareable portion of a prefix.
func (m *Manager) alignedPrefix(key string, prefixLen, tokens int) int {
	if m.cfg.Prefix == PrefixOff || key == "" || prefixLen <= 0 {
		return 0
	}
	if prefixLen > tokens {
		prefixLen = tokens
	}
	return prefixLen - prefixLen%m.cfg.PageTokens
}

// classify counts the chain blocks an admit would hit, reload, and
// create, marking existing needed blocks with stamp so concurrent spill
// decisions skip them.
func (m *Manager) classify(g *prefixGroup, nblocks, stamp int) (hits, reloads, creates int) {
	for i := 0; i < nblocks; i++ {
		if g == nil || i >= len(g.blocks) {
			creates++
			continue
		}
		b := g.blocks[i]
		switch b.state {
		case blockResident:
			hits++
			b.mark = stamp
		case blockHost:
			reloads++
			b.mark = stamp
		default:
			creates++
		}
	}
	return hits, reloads, creates
}

// spillable counts idle device blocks an admit stamped `stamp` may
// reclaim (refcount zero, not needed by the admit itself).
func (m *Manager) spillable(stamp int) int {
	n := 0
	for _, b := range m.blocks {
		if b.state == blockResident && b.refcnt == 0 && b.mark != stamp {
			n++
		}
	}
	return n
}

// spillOne spills the least-recently-used idle device block to the host
// tier (or drops it when no tier has room), freeing one device page. It
// returns the bytes moved to host; dropped blocks move nothing.
func (m *Manager) spillOne(excludeStamp int) (bytes int64, ok bool) {
	var victim *prefixBlock
	for _, b := range m.blocks {
		if b.state != blockResident || b.refcnt != 0 {
			continue
		}
		if excludeStamp != 0 && b.mark == excludeStamp {
			continue
		}
		if victim == nil || b.lastUse < victim.lastUse {
			victim = b
		}
	}
	if victim == nil {
		return 0, false
	}
	m.free++
	m.prefixPages--
	if m.hostCap != 0 {
		if m.hostCap > 0 && m.hostPages >= m.hostCap {
			m.dropOldestHost(excludeStamp)
		}
		if m.hostCap < 0 || m.hostPages < m.hostCap {
			victim.state = blockHost
			m.hostPages++
			m.prefixSpills++
			m.prefixSpillBytes += m.pageBytes
			m.observe(obs.EvPrefixSpill, -1, m.pageBytes)
			return m.pageBytes, true
		}
	}
	m.removeBlock(victim)
	m.observe(obs.EvPrefixDrop, -1, m.pageBytes)
	return 0, true
}

// dropOldestHost evicts the least-recently-used host-tier block that no
// in-flight admit needs.
func (m *Manager) dropOldestHost(excludeStamp int) {
	var victim *prefixBlock
	for _, b := range m.blocks {
		if b.state != blockHost {
			continue
		}
		if excludeStamp != 0 && b.mark == excludeStamp {
			continue
		}
		if victim == nil || b.lastUse < victim.lastUse {
			victim = b
		}
	}
	if victim != nil {
		m.hostPages--
		m.removeBlock(victim)
		m.observe(obs.EvPrefixDrop, -1, m.pageBytes)
	}
}

// removeBlock drops a block entirely: its chain slot becomes a tombstone
// a later admit recreates in place.
func (m *Manager) removeBlock(b *prefixBlock) {
	for i, x := range m.blocks {
		if x == b {
			m.blocks = append(m.blocks[:i], m.blocks[i+1:]...)
			break
		}
	}
	b.state = blockDropped
	b.refcnt = 0
}

// SpillIdlePrefix spills (or drops, without a host tier) up to n idle
// prefix blocks, freeing their device pages for sequence growth. It
// returns the bytes moved to host and the number of pages freed.
func (m *Manager) SpillIdlePrefix(n int) (bytes int64, freed int) {
	for i := 0; i < n; i++ {
		b, ok := m.spillOne(0)
		if !ok {
			break
		}
		bytes += b
		freed++
	}
	return bytes, freed
}

// CanAdmitWithPrefix reports whether AdmitWithPrefix would succeed,
// counting idle prefix blocks the admit may spill to make room.
func (m *Manager) CanAdmitWithPrefix(tokens int, key string, prefixLen int) bool {
	if m.cfg.Prefix == PrefixOff {
		return m.CanAdmit(tokens)
	}
	aligned := m.alignedPrefix(key, prefixLen, tokens)
	var g *prefixGroup
	if aligned > 0 {
		g = m.groups[key]
	}
	m.prefixStamp++
	stamp := m.prefixStamp
	_, reloads, creates := m.classify(g, aligned/m.cfg.PageTokens, stamp)
	need := m.pagesFor(tokens-aligned) + reloads + creates
	return need <= m.free+m.spillable(stamp)
}

// AdmitWithPrefix admits a sequence whose leading prefixLen tokens are
// shared under key: page-aligned prefix pages come from the shared block
// chain (cache hits skip their prefill compute), and idle blocks are
// spilled as needed to make room. With prefix caching off it behaves
// exactly like Admit. The result prices the admit's host-link traffic
// and tells the scheduler how many prompt tokens the cache covered.
func (m *Manager) AdmitWithPrefix(id, tokens int, key string, prefixLen int) (PrefixAdmit, error) {
	var res PrefixAdmit
	if m.cfg.Prefix == PrefixOff {
		return res, m.Admit(id, tokens)
	}
	if tokens <= 0 {
		return res, fmt.Errorf("kvcache: admit seq %d with %d tokens", id, tokens)
	}
	if tokens > m.cfg.MaxSeqLen {
		return res, fmt.Errorf("kvcache: seq %d length %d exceeds max %d", id, tokens, m.cfg.MaxSeqLen)
	}
	if _, ok := m.seqs[id]; ok {
		return res, fmt.Errorf("kvcache: seq %d already admitted", id)
	}
	if prefixLen < 0 || prefixLen > tokens {
		return res, fmt.Errorf("kvcache: seq %d prefix %d outside [0,%d]", id, prefixLen, tokens)
	}
	aligned := m.alignedPrefix(key, prefixLen, tokens)
	nblocks := aligned / m.cfg.PageTokens
	var g *prefixGroup
	if nblocks > 0 {
		g = m.groups[key]
		if g == nil {
			g = &prefixGroup{key: key, root: keyHash(key)}
			m.groups[key] = g
		}
	}
	m.prefixStamp++
	stamp := m.prefixStamp
	_, reloads, creates := m.classify(g, nblocks, stamp)
	private := tokens - aligned
	need := m.pagesFor(private) + reloads + creates
	if need > m.free+m.spillable(stamp) {
		return res, fmt.Errorf("kvcache: seq %d needs %d pages, only %d free (+%d spillable)",
			id, need, m.free, m.spillable(stamp))
	}
	for need > m.free {
		bytes, ok := m.spillOne(stamp)
		if !ok {
			return res, fmt.Errorf("kvcache: seq %d needs %d pages, only %d free", id, need, m.free)
		}
		if bytes > 0 {
			res.SpillOps++
			res.SpillBytes += bytes
		}
	}

	// Extend the chain with tombstones for blocks this admit creates.
	if g != nil {
		for len(g.blocks) < nblocks {
			parent := g.root
			if n := len(g.blocks); n > 0 {
				parent = g.blocks[n-1].hash
			}
			b := &prefixBlock{
				key:   g.key,
				index: len(g.blocks),
				hash:  lineageHash(parent, len(g.blocks)),
			}
			g.blocks = append(g.blocks, b)
		}
	}

	s := &seq{id: id, tokens: private, order: m.admitted, prefixTokens: aligned}
	for i := 0; i < nblocks; i++ {
		b := g.blocks[i]
		switch b.state {
		case blockResident:
			res.CachedTokens += m.cfg.PageTokens
		case blockHost:
			m.hostPages--
			m.free--
			m.prefixPages++
			b.state = blockResident
			m.prefixReloads++
			m.prefixReloadBytes += m.pageBytes
			res.ReloadOps++
			res.ReloadBytes += m.pageBytes
			res.CachedTokens += m.cfg.PageTokens
		default: // dropped tombstone or fresh block: recompute and publish
			m.free--
			m.prefixPages++
			b.state = blockResident
			m.blocks = append(m.blocks, b)
			res.NewTokens += m.cfg.PageTokens
		}
		b.refcnt++
		b.lastUse = stamp
		s.prefix = append(s.prefix, b)
	}
	pages := m.pagesFor(private)
	m.free -= pages
	s.pages = pages
	m.seqs[id] = s
	m.admitted++
	m.resident.push(s)
	m.residentTokens += private
	m.fragTokens += pages*m.cfg.PageTokens - private
	if aligned > 0 {
		m.prefixLookups++
		if res.CachedTokens > 0 {
			m.prefixHits++
			m.observe(obs.EvPrefixHit, id, int64(res.CachedTokens))
		}
		m.prefixTokensSaved += int64(res.CachedTokens)
	}
	return res, nil
}

// PrefixCachedTokens returns how many leading prefix tokens of key are
// currently cached (device- or host-resident): the longest-cached-prefix
// score the affinity router ranks replicas by.
func (m *Manager) PrefixCachedTokens(key string) int {
	g := m.groups[key]
	if g == nil {
		return 0
	}
	n := 0
	for _, b := range g.blocks {
		if b.state == blockDropped {
			break
		}
		n += m.cfg.PageTokens
	}
	return n
}

// DevicePrefixCachedTokens returns how many leading prefix tokens of
// key are device-resident right now — coverage a hit serves without
// recompute or a host-link reload. The counterfactual routing-regret
// cost model scores candidates with this, not PrefixCachedTokens:
// host-spilled coverage still prices a reload, so counting it as free
// would hide exactly the churn a prefix-blind router causes.
func (m *Manager) DevicePrefixCachedTokens(key string) int {
	g := m.groups[key]
	if g == nil {
		return 0
	}
	n := 0
	for _, b := range g.blocks {
		if b.state != blockResident {
			break
		}
		n += m.cfg.PageTokens
	}
	return n
}

// prefixInvariant recounts the prefix-block bookkeeping: per-block
// refcounts against the sequences holding them, chain lineage hashes,
// block residency against the page counters, and host-tier occupancy.
func (m *Manager) prefixInvariant() error {
	if m.cfg.Prefix == PrefixOff {
		if len(m.groups) != 0 || len(m.blocks) != 0 || m.prefixPages != 0 || m.hostPages != 0 {
			return fmt.Errorf("kvcache: prefix state present with prefix caching off")
		}
	}
	refs := make(map[*prefixBlock]int)
	for _, s := range m.seqs {
		if len(s.prefix)*m.cfg.PageTokens != s.prefixTokens {
			return fmt.Errorf("kvcache: seq %d prefix tokens %d != %d blocks", s.id, s.prefixTokens, len(s.prefix))
		}
		for _, b := range s.prefix {
			if b.state != blockResident {
				return fmt.Errorf("kvcache: seq %d references non-resident prefix block %d/%q", s.id, b.index, b.key)
			}
			refs[b]++
		}
	}
	inChain := make(map[*prefixBlock]bool)
	for key, g := range m.groups {
		if g.key != key || g.root != keyHash(key) {
			return fmt.Errorf("kvcache: prefix group %q mislabeled", key)
		}
		parent := g.root
		for i, b := range g.blocks {
			if b.key != key || b.index != i {
				return fmt.Errorf("kvcache: block %d/%q misplaced in chain %q at %d", b.index, b.key, key, i)
			}
			if want := lineageHash(parent, i); b.hash != want {
				return fmt.Errorf("kvcache: block %d/%q lineage hash %x, want %x", i, key, b.hash, want)
			}
			parent = b.hash
			if b.state != blockDropped {
				inChain[b] = true
			}
		}
	}
	resident, host := 0, 0
	live := make(map[*prefixBlock]bool)
	for _, b := range m.blocks {
		live[b] = true
		if !inChain[b] {
			return fmt.Errorf("kvcache: live block %d/%q missing from its chain", b.index, b.key)
		}
		delete(inChain, b)
		if b.refcnt != refs[b] {
			return fmt.Errorf("kvcache: block %d/%q refcount %d, recount %d", b.index, b.key, b.refcnt, refs[b])
		}
		switch b.state {
		case blockResident:
			resident++
		case blockHost:
			host++
			if b.refcnt != 0 {
				return fmt.Errorf("kvcache: host block %d/%q has refcount %d", b.index, b.key, b.refcnt)
			}
		default:
			return fmt.Errorf("kvcache: dropped block %d/%q in live list", b.index, b.key)
		}
	}
	if len(inChain) != 0 {
		return fmt.Errorf("kvcache: %d chain blocks missing from live list", len(inChain))
	}
	for b := range refs {
		if !live[b] {
			return fmt.Errorf("kvcache: referenced block %d/%q not live", b.index, b.key)
		}
	}
	if resident != m.prefixPages {
		return fmt.Errorf("kvcache: prefix pages counter %d, recount %d", m.prefixPages, resident)
	}
	if host != m.hostPages {
		return fmt.Errorf("kvcache: host pages counter %d, recount %d", m.hostPages, host)
	}
	if m.hostCap >= 0 && host > m.hostCap {
		return fmt.Errorf("kvcache: host tier holds %d pages, capacity %d", host, m.hostCap)
	}
	return nil
}
