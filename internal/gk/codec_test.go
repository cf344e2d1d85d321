package gk

import (
	"testing"

	"streamquantiles/internal/core"
	"streamquantiles/internal/exact"
	"streamquantiles/internal/streamgen"
)

type marshaler interface {
	MarshalBinary() ([]byte, error)
	UnmarshalBinary([]byte) error
}

func TestCodecRoundTripAllVariants(t *testing.T) {
	data := streamgen.Generate(streamgen.MPCATLike{Seed: 60}, 20000)
	rest := streamgen.Generate(streamgen.Uniform{Bits: 24, Seed: 61}, 5000)
	phis := core.EvenPhis(0.02)

	cases := []struct {
		name    string
		mk      func() core.CashRegister
		mkEmpty func() marshaler
	}{
		{"Adaptive", func() core.CashRegister { return NewAdaptive(0.01) },
			func() marshaler { return NewAdaptive(0.5) }},
		{"Theory", func() core.CashRegister { return NewTheory(0.01) },
			func() marshaler { return NewTheory(0.5) }},
		{"Array", func() core.CashRegister { return NewArray(0.01) },
			func() marshaler { return NewArray(0.5) }},
		{"Biased", func() core.CashRegister { return NewBiased(0.01) },
			func() marshaler { return NewBiased(0.5) }},
	}
	for _, c := range cases {
		orig := c.mk()
		feed(orig, data)
		blob, err := orig.(marshaler).MarshalBinary()
		if err != nil {
			t.Fatalf("%s: marshal: %v", c.name, err)
		}
		restored := c.mkEmpty()
		if err := restored.UnmarshalBinary(blob); err != nil {
			t.Fatalf("%s: unmarshal: %v", c.name, err)
		}
		rs := restored.(core.CashRegister)
		if rs.Count() != orig.Count() {
			t.Fatalf("%s: count %d vs %d", c.name, rs.Count(), orig.Count())
		}
		for _, phi := range phis {
			if rs.Quantile(phi) != orig.Quantile(phi) {
				t.Fatalf("%s: quantile(%v) differs after round trip", c.name, phi)
			}
		}
		// Continuing the stream must keep the summary valid (the heap and
		// skip list are rebuilt: this exercises them). Theory, Array and
		// Biased evolve deterministically from logical state, so they
		// must stay bit-identical to the uninterrupted run; Adaptive's
		// heap breaks cost ties by internal array order, which is not
		// logical state, so for it we check the ε guarantee instead.
		for _, x := range rest {
			rs.Update(x)
			orig.Update(x)
		}
		if c.name == "Adaptive" {
			all := append(append([]uint64{}, data...), rest...)
			oracle := exact.New(all)
			maxErr, _ := oracle.EvaluateSummary(rs, 0.01)
			if maxErr > 0.01 {
				t.Fatalf("Adaptive: restored summary max error %v exceeds ε after continuing", maxErr)
			}
			continue
		}
		for _, phi := range phis {
			if rs.Quantile(phi) != orig.Quantile(phi) {
				t.Fatalf("%s: quantile(%v) diverged after continuing", c.name, phi)
			}
		}
	}
}

func TestCodecAdaptiveHeapRebuilt(t *testing.T) {
	orig := NewAdaptive(0.02)
	feed(orig, streamgen.Generate(streamgen.Uniform{Bits: 16, Seed: 62}, 10000))
	blob, _ := orig.MarshalBinary()
	restored := NewAdaptive(0.5)
	if err := restored.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	if !restored.checkHeap() {
		t.Error("heap invariant broken after unmarshal")
	}
}

func TestCodecRejectsWrongKind(t *testing.T) {
	a := NewAdaptive(0.1)
	a.Update(1)
	blob, _ := a.MarshalBinary()
	var th Theory
	if err := th.UnmarshalBinary(blob); err == nil {
		t.Error("Theory accepted an Adaptive encoding")
	}
	var arr Array
	if err := arr.UnmarshalBinary(blob); err == nil {
		t.Error("Array accepted an Adaptive encoding")
	}
	// Array and Biased share a layout; only the kind byte tells them
	// apart.
	ab := NewArray(0.1)
	ab.Update(1)
	blob, _ = ab.MarshalBinary()
	var bi Biased
	if err := bi.UnmarshalBinary(blob); err == nil {
		t.Error("Biased accepted an Array encoding")
	}
}

func TestCodecRejectsCorruptInput(t *testing.T) {
	a := NewArray(0.05)
	feed(a, streamgen.Generate(streamgen.Uniform{Bits: 16, Seed: 63}, 2000))
	blob, _ := a.MarshalBinary()
	// Truncations at every prefix length must error, never panic.
	for cut := 0; cut < len(blob); cut += 3 {
		var b Array
		if err := b.UnmarshalBinary(blob[:cut]); err == nil {
			t.Fatalf("accepted truncated input of %d bytes", cut)
		}
	}
	// Flip the tuple order to violate sortedness.
	var b Array
	if err := b.UnmarshalBinary([]byte{1, 0x13, 0, 0, 0, 0, 0, 0, 0, 0}); err == nil {
		t.Error("accepted garbage header")
	}
}

func TestCodecArrayPreservesBuffer(t *testing.T) {
	a := NewArray(0.05)
	for i := uint64(0); i < 10; i++ { // stays entirely in the buffer
		a.Update(i)
	}
	blob, _ := a.MarshalBinary()
	var b Array
	if err := b.UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	if b.Count() != 10 {
		t.Fatalf("count %d", b.Count())
	}
	if q := b.Quantile(0.5); q > 9 {
		t.Errorf("median %d after buffered round trip", q)
	}
}
