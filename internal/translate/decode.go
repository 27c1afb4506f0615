package translate

import (
	"fmt"

	"atomemu/internal/arch"
)

// Decoded is a decoded-but-not-lowered guest basic block: the instruction
// slice Block would lower, without the IR. The engine does not execute
// it (cold blocks run as unoptimized IR); it is the cheap way to walk
// an image's block boundaries and to time decode apart from lowering.
// Instructions are contiguous — Decode never follows branches — so the
// i'th instruction sits at Start + i*arch.InstrBytes.
type Decoded struct {
	Start    uint32
	Instrs   []arch.Instruction
	GuestLen int // == len(Instrs); mirrors ir.Block.GuestLen
	// HasStores/HasLoads mirror ir.Block's instrumentation-sensitivity
	// flags: whether the block contains plain guest stores/loads.
	HasStores bool
	HasLoads  bool
}

// End returns the guest pc immediately after the decoded instructions.
// When the block was truncated (fetch fault or cap) without a block-ending
// instruction, execution resumes here.
func (d *Decoded) End() uint32 {
	return d.Start + uint32(len(d.Instrs))*arch.InstrBytes
}

// Decode reads the guest basic block at pc without lowering it to IR.
// Block boundaries, the instruction cap, and fault behaviour match Block
// exactly: a fetch fault after at least one instruction truncates the
// block so the fault is taken precisely on re-entry, and a decode error
// fails the whole block just as it would fail translation.
func Decode(fetch FetchFunc, pc uint32, opts Options) (*Decoded, error) {
	maxInstrs := opts.MaxGuestInstrs
	if maxInstrs <= 0 {
		maxInstrs = DefaultMaxGuestInstrs
	}
	d := &Decoded{Start: pc}
	cur := pc
	for n := 0; n < maxInstrs; n++ {
		word, err := fetch(cur)
		if err != nil {
			if n > 0 {
				d.GuestLen = n
				return d, nil
			}
			return nil, fmt.Errorf("translate: fetch at %#08x: %w", cur, err)
		}
		in, err := arch.Decode(word)
		if err != nil {
			return nil, fmt.Errorf("translate: at %#08x: %w", cur, err)
		}
		d.Instrs = append(d.Instrs, in)
		d.GuestLen = n + 1
		switch in.Op {
		case arch.STR, arch.STRB, arch.STRR, arch.STRBR:
			d.HasStores = true
		case arch.LDR, arch.LDRB, arch.LDRR, arch.LDRBR:
			d.HasLoads = true
		}
		if in.Op.EndsBlock() {
			return d, nil
		}
		cur += arch.InstrBytes
	}
	return d, nil
}
