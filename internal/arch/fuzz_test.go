package arch

import "testing"

// FuzzDecode throws arbitrary 32-bit words at the decoder. Any word that
// decodes must be a valid instruction — Decode does not call Validate, so
// this is what holds its field masking to the rules — and the
// decode→encode→decode round trip must be a fixed point: unused bit fields
// are the only information Encode may drop.
func FuzzDecode(f *testing.F) {
	seeds := []Instruction{
		{Op: MOVI, Rd: 3, Imm: 42},
		{Op: ADD, Rd: 1, Rn: 2, Rm: 3},
		{Op: LDR, Rd: 4, Rn: 5, Imm: 8},
		{Op: LDREX, Rd: 0, Rn: 1},
		{Op: STREX, Rd: 2, Rn: 3, Rm: 4},
		{Op: B, Cond: NE, Off: -12},
		{Op: SVC, Imm: 7},
	}
	for _, i := range seeds {
		f.Add(i.Encode())
	}
	f.Add(uint32(0))
	f.Add(^uint32(0))
	f.Add(uint32(0xff000000))
	f.Fuzz(func(t *testing.T, w uint32) {
		i, err := Decode(w)
		if err != nil {
			return
		}
		if err := i.Validate(); err != nil {
			t.Fatalf("%#08x decoded to invalid %+v: %v", w, i, err)
		}
		w2 := i.Encode()
		j, err := Decode(w2)
		if err != nil {
			t.Fatalf("re-decode of %#08x (from %#08x) failed: %v", w2, w, err)
		}
		if i != j {
			t.Fatalf("round trip not stable: %#08x -> %+v -> %#08x -> %+v", w, i, w2, j)
		}
	})
}
