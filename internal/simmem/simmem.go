// Package simmem provides the sparse, paged functional memory used by the
// workload interpreters. It stores 64-bit words addressed by byte address
// (8-byte aligned accesses) and materialises pages on demand, so workloads
// can roam multi-gigabyte synthetic address spaces with bounded host memory.
package simmem

const (
	pageShift = 12 // 4 KiB pages
	pageBytes = 1 << pageShift
	pageWords = pageBytes / 8
	pageMask  = pageBytes - 1

	// Pages are carved from slabs of this many, so materialising a large
	// region (a pointer ring, a first-touch sweep) costs one allocation
	// per slab instead of one per page.
	slabPages = 64
)

type page [pageWords]uint64

// Memory is a sparse 64-bit word store. The zero value is an empty memory;
// reads of untouched locations return the memory's Fill pattern (default 0),
// matching the zero-initialised heaps that make SPEC workloads so zero-rich
// (Figure 1 of the paper).
type Memory struct {
	pages map[uint64]*page
	free  []*page // pages Reset took back, zeroed, handed out before the slab
	slab  []page  // never-handed-out backing for new pages

	// One-entry MRU cache: workload kernels touch the same page in runs
	// (sequential walkers, store/reload pairs), so most accesses skip the
	// map entirely.
	mruKey  uint64
	mruPage *page

	// Fill is returned by reads of never-written words. Leaving it zero
	// models zero-initialised memory.
	Fill uint64
}

// Read64 returns the 64-bit word containing byte address addr.
func (m *Memory) Read64(addr uint64) uint64 {
	key := addr >> pageShift
	if p := m.mruPage; p != nil && key == m.mruKey {
		return p[(addr&pageMask)>>3]
	}
	p, ok := m.pages[key]
	if !ok {
		return m.Fill
	}
	m.mruKey, m.mruPage = key, p
	return p[(addr&pageMask)>>3]
}

// Write64 stores v in the 64-bit word containing byte address addr.
func (m *Memory) Write64(addr, v uint64) {
	key := addr >> pageShift
	p := m.mruPage
	if p == nil || key != m.mruKey {
		var ok bool
		p, ok = m.pages[key]
		if !ok {
			if m.pages == nil {
				m.pages = make(map[uint64]*page)
			}
			if n := len(m.free); n > 0 {
				p = m.free[n-1]
				m.free = m.free[:n-1]
			} else {
				if len(m.slab) == 0 {
					m.slab = make([]page, slabPages)
				}
				p = &m.slab[0]
				m.slab = m.slab[1:]
			}
			if m.Fill != 0 {
				for i := range p {
					p[i] = m.Fill
				}
			}
			m.pages[key] = p
		}
		m.mruKey, m.mruPage = key, p
	}
	p[(addr&pageMask)>>3] = v
}

// Pages reports how many distinct pages have been materialised.
func (m *Memory) Pages() int { return len(m.pages) }

// Footprint reports the touched footprint in bytes.
func (m *Memory) Footprint() uint64 { return uint64(len(m.pages)) * pageBytes }

// Reset returns the memory to its initial state without giving up its
// storage: every touched page is zeroed onto a free list that later writes
// take pages from before the slab, and the page map keeps its buckets. A
// memory reused for job after job therefore allocates only for footprint
// beyond the largest it has already held.
func (m *Memory) Reset() {
	for _, p := range m.pages {
		*p = page{}
		m.free = append(m.free, p)
	}
	clear(m.pages)
	m.mruPage = nil
	m.mruKey = 0
}
