package cache

import (
	"cmp"
	"slices"

	"rsepsim/internal/ckpt"
)

// Walk hands the cache's contents and statistics to s. Geometry (set/way
// counts, latencies, the prefetcher's shape) is not stored — it is
// reconstructed from the configuration, and a decoder refuses a mismatch.
// Derived structures (the presence filter, the per-set fill counts, the MSHR
// ring order) are likewise rebuilt by Rebuild rather than stored:
// outstanding misses are stored as two parallel insertion-ordered arrays
// exactly as the historical compact MSHR arrays were laid out, and a fill
// array of another length than the address array fails the decode. Line
// records are stored in their packed 8-byte form (format version 3), tags
// and LRU stamps as 32-bit keys and ticks (format version 5), and of each
// set's MRU hint only the way.
func (c *Cache) Walk(s *ckpt.Stream) {
	s.Tag("cache:" + c.cfg.Name)
	ckpt.Fixed(s, c.lines)
	ckpt.Fixed(s, c.tags)
	ckpt.Fixed(s, c.lru)
	if !s.Decoding() {
		for si, h := range c.mruHint {
			c.mruWays[si] = h.way
		}
	}
	ckpt.Fixed(s, c.mruWays)
	s.Int(&c.filled)
	if !s.Decoding() {
		ents := slices.Clone(c.mshr[c.mshrHead:])
		slices.SortFunc(ents, func(a, b mshrEnt) int { return cmp.Compare(a.seq, b.seq) })
		c.mshrAddrs, c.mshrFills = c.mshrAddrs[:0], c.mshrFills[:0]
		for _, e := range ents {
			c.mshrAddrs = append(c.mshrAddrs, e.addr)
			c.mshrFills = append(c.mshrFills, e.fill)
		}
	}
	ckpt.Slice(s, &c.mshrAddrs)
	c.mshrFills = slices.Grow(c.mshrFills[:0], len(c.mshrAddrs))[:len(c.mshrAddrs)]
	ckpt.Fixed(s, c.mshrFills)
	s.U64(&c.mshrMin)
	s.U32(&c.tick)
	s.U64(&c.Accesses)
	s.U64(&c.Misses)
	s.U64(&c.PrefetchIssued)
	s.U64(&c.PrefetchUseful)
	s.U64(&c.MSHRStalls)
	s.Rebuild(c)
	if c.cfg.Prefetch != nil {
		c.cfg.Prefetch.Walk(s)
	}
}

// Rebuild refills the MSHR ring from the decoded arrays and recomputes the
// presence filter (from each tag's line address), per-set fill counts and
// MRU hints from the tags and the stored hint ways. Valid ways form a prefix
// of each set (fills claim the first invalid way and lines never invalidate
// — the same invariant victim relies on), so the count is also the next
// victim way.
func (c *Cache) Rebuild() error {
	c.mshr = c.mshr[:0]
	c.mshrHead = 0
	c.mshrSeq = 0
	for i, addr := range c.mshrAddrs {
		c.mshrPush(mshrEnt{fill: c.mshrFills[i], addr: addr, seq: c.mshrSeq})
		c.mshrSeq++
	}
	clear(c.filter)
	clear(c.setFilled)
	for si := uint64(0); si < c.nsets; si++ {
		base := si * uint64(c.ways)
		n := uint16(0)
		for w := 0; w < c.ways; w++ {
			tag := c.tags[base+uint64(w)]
			if tag == 0 {
				break
			}
			c.filterAdd(c.lineAddr(si, tag))
			n++
		}
		c.setFilled[si] = n
		// Reconstitute the folded MRU hint from the stored way; an
		// out-of-range or invalid hinted way leaves key 0, which never
		// matches.
		if m := c.mruWays[si]; int(m) < c.ways {
			c.mruHint[si] = mruEnt{key: c.tags[base+uint64(m)], way: m}
		} else {
			c.mruHint[si] = mruEnt{}
		}
	}
	return nil
}

// Walk hands the prefetcher's learned state to s.
func (p *StridePrefetcher) Walk(s *ckpt.Stream) {
	s.Tag("pf:stride")
	ckpt.Fixed(s, p.entries)
}

// Walk hands the prefetcher's learned state to s. The lastLine hash index
// is derivable and rebuilt by Rebuild, not stored.
func (p *StreamPrefetcher) Walk(s *ckpt.Stream) {
	s.Tag("pf:stream")
	ckpt.Fixed(s, p.lastLine)
	ckpt.Fixed(s, p.dir)
	ckpt.Fixed(s, p.conf)
	ckpt.Fixed(s, p.lru)
	s.U64(&p.clock)
	s.Int(&p.filled)
	s.Rebuild(p)
}

// Rebuild recomputes the lastLine hash index.
func (p *StreamPrefetcher) Rebuild() error {
	clear(p.idx)
	for i, ll := range p.lastLine {
		p.reindex(i, 0, ll)
	}
	return nil
}

// Walk hands the TLB's translations and statistics to s.
func (t *TLB) Walk(s *ckpt.Stream) {
	s.Tag("tlb")
	ckpt.Fixed(s, t.pages)
	ckpt.Fixed(s, t.lru)
	ckpt.Fixed(s, t.present)
	s.U64(&t.clock)
	s.Int(&t.mru)
	s.Int(&t.filled)
	s.U64(&t.Accesses)
	s.U64(&t.Misses)
	s.Rebuild(t)
}

// Rebuild folds the MRU entry's page back out of the table.
func (t *TLB) Rebuild() error {
	t.mruKey = 0
	if t.mru >= 0 && t.mru < len(t.pages) {
		t.mruKey = t.pages[t.mru]
	}
	return nil
}
