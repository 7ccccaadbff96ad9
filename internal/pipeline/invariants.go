package pipeline

import (
	"fmt"

	"rsepsim/internal/regfile"
	"rsepsim/internal/uarch"
)

// CheckInvariants verifies the structural invariants of the rename machinery
// — register conservation and RAT consistency. Tests call it after runs and
// after forced squashes; a violation indicates reference-counting or
// walk-back bugs.
func (c *Core) CheckInvariants() error {
	// Every architectural register must map to an allocated physical
	// register (or the zero register).
	seen := map[regfile.PReg]int{}
	for a := 0; a < uarch.NumArchRegs; a++ {
		p := c.rat.Get(a)
		if p == regfile.PRegNone {
			return fmt.Errorf("arch reg %d unmapped", a)
		}
		if p != regfile.ZeroPReg && !c.prf.Allocated(p) {
			return fmt.Errorf("arch reg %d maps to freed p%d", a, p)
		}
		seen[p]++
	}
	// Distinct architectural registers may share a physical register only
	// when the sharing machinery is on (move elimination / RSEP).
	if c.cfg.RSEP == nil && !c.cfg.MoveElim && !c.cfg.ZeroPred && !c.cfg.ZeroIdiomElim {
		for p, n := range seen {
			if p != regfile.ZeroPReg && n > 1 {
				return fmt.Errorf("p%d mapped by %d arch regs without sharing", p, n)
			}
		}
	}
	// Register conservation: allocated + free = total.
	alloc := 0
	for p := 1; p < c.prf.Size(); p++ {
		if c.prf.Allocated(regfile.PReg(p)) {
			alloc++
		}
	}
	free := c.prf.FreeCount(false) + c.prf.FreeCount(true)
	if alloc+free != c.prf.Size()-1 {
		return fmt.Errorf("register leak: %d allocated + %d free != %d",
			alloc, free, c.prf.Size()-1)
	}
	// The ROB cannot exceed its capacity.
	if c.robLen() > c.cfg.ROBSize {
		return fmt.Errorf("ROB over capacity: %d > %d", c.robLen(), c.cfg.ROBSize)
	}
	if c.iqCount > c.cfg.IQSize+c.cfg.IssueWidth {
		return fmt.Errorf("IQ over capacity: %d", c.iqCount)
	}
	return nil
}
