package regfile

import (
	"fmt"

	"rsepsim/internal/ckpt"
)

// Walk hands the register values, ready cycles, allocation map, waiter lists
// and both free lists (whose order determines future allocations and so must
// be preserved exactly) to s.
func (f *File) Walk(s *ckpt.Stream) {
	s.Tag("prf")
	ckpt.Fixed(s, f.vals)
	ckpt.Fixed(s, f.readyAt)
	ckpt.Fixed(s, f.alloc)
	for i := range f.waiters {
		ckpt.Slice(s, &f.waiters[i])
	}
	ckpt.Slice(s, &f.intFree)
	ckpt.Slice(s, &f.fpFree)
}

// Walk hands the architectural-to-physical mappings to s.
func (r *RAT) Walk(s *ckpt.Stream) {
	s.Tag("rat")
	ckpt.Fixed(s, r.m)
}

// Walk hands the live entries and statistics to s. The register-to-slot
// index is not stored: a decoder queues Rebuild to derive it.
func (b *ISRB) Walk(s *ckpt.Stream) {
	s.Tag("isrb")
	ckpt.Slice(s, &b.entries)
	s.U64(&b.ShareOK)
	s.U64(&b.ShareFullRejects)
	s.U64(&b.Frees)
	s.Rebuild(b)
}

// maxSharedPReg bounds the register numbers a restored entry may name, far
// above any register file a config builds, so a forged entry cannot make
// Rebuild allocate more than a few MiB of index.
const maxSharedPReg = 1 << 20

// Rebuild reconstructs the register-to-slot index from the valid entries,
// refusing entries no sharing could have made: a non-positive or
// implausibly large register, or two live entries for one register.
func (b *ISRB) Rebuild() error {
	clear(b.slotOf)
	for i, e := range b.entries {
		if !e.valid {
			continue
		}
		if e.preg <= ZeroPReg || e.preg >= maxSharedPReg {
			return fmt.Errorf("regfile: ISRB entry %d names register %d", i, e.preg)
		}
		if int(e.preg) < len(b.slotOf) && b.slotOf[e.preg] != 0 {
			return fmt.Errorf("regfile: ISRB entries %d and %d both share register %d", b.slotOf[e.preg]-1, i, e.preg)
		}
		b.index(i, e.preg)
	}
	return nil
}
