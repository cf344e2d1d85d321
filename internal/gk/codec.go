package gk

import "streamquantiles/internal/core"

// All GK variants serialize as their logical content — ε, n, and the
// ordered tuple list — plus any buffered elements. The auxiliary index
// structures (skip list, heap) are rebuilt on load; they are derived
// state, and rebuilding keeps the encoding small and
// implementation-independent.

const (
	codecVersion    = 1
	codecKindAdapt  = 0x11
	codecKindTheory = 0x12
	codecKindArray  = 0x13
	codecKindBiased = 0x14
)

func marshalTuples(dst []byte, kind byte, eps float64, n int64, seq tupleSeq, extra func(e *core.Encoder)) []byte {
	e := core.EncoderFrom(dst)
	e.U64(codecVersion)
	e.U64(uint64(kind))
	e.F64(eps)
	e.I64(n)
	var count uint64
	seq(func(t tuple) bool { count++; return true })
	e.U64(count)
	seq(func(t tuple) bool {
		e.U64(t.v)
		e.I64(t.g)
		e.I64(t.del)
		return true
	})
	if extra != nil {
		extra(&e)
	}
	return e.Bytes()
}

func unmarshalTuples(kind byte, data []byte) (eps float64, n int64, cols tcols, dec *core.Decoder, err error) {
	dec = core.NewDecoder(data)
	if v := dec.U64(); v != codecVersion && dec.Err() == nil {
		return 0, 0, tcols{}, nil, core.Corruptf("gk: unsupported encoding version %d", v)
	}
	if k := dec.U64(); k != uint64(kind) && dec.Err() == nil {
		return 0, 0, tcols{}, nil, core.Corruptf("gk: encoding is for variant %#x, want %#x", k, kind)
	}
	eps = dec.F64()
	n = dec.I64()
	count := dec.Len()
	if dec.Err() != nil {
		return 0, 0, tcols{}, nil, dec.Err()
	}
	// Positive-form comparisons so NaN (which fails every comparison)
	// is rejected rather than slipping through to checkEps's panic.
	if !(eps > 0 && eps < 1) || n < 0 {
		return 0, 0, tcols{}, nil, core.Corruptf("gk: implausible encoded parameters eps=%v n=%d", eps, n)
	}
	// Every encoded tuple costs at least three bytes, so a count beyond
	// the input length is hostile; reject it before the decode loop.
	if count > len(data) {
		return 0, 0, tcols{}, nil, core.Corruptf("gk: tuple count %d exceeds input length %d", count, len(data))
	}
	var prev uint64
	for i := 0; i < count; i++ {
		t := tuple{v: dec.U64(), g: dec.I64(), del: dec.I64()}
		if dec.Err() != nil {
			return 0, 0, tcols{}, nil, dec.Err()
		}
		if i > 0 && t.v < prev {
			return 0, 0, tcols{}, nil, core.Corruptf("gk: encoded tuples out of order at %d", i)
		}
		if t.g < 0 || t.del < 0 {
			return 0, 0, tcols{}, nil, core.Corruptf("gk: negative g or Δ at tuple %d", i)
		}
		prev = t.v
		cols.push(t.v, t.g, t.del)
	}
	return eps, n, cols, dec, nil
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (a *Adaptive) MarshalBinary() ([]byte, error) { return a.AppendBinary(nil) }

// AppendBinary implements core.AppendMarshaler: the same bytes as
// MarshalBinary, appended onto dst so pooled buffers can be reused.
func (a *Adaptive) AppendBinary(dst []byte) ([]byte, error) {
	return marshalTuples(dst, codecKindAdapt, a.eps, a.n, a.seq, nil), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler; the skip list
// and heap are rebuilt from the tuple list.
func (a *Adaptive) UnmarshalBinary(data []byte) error {
	eps, n, tuples, dec, err := unmarshalTuples(codecKindAdapt, data)
	if err != nil {
		return err
	}
	if dec.Remaining() != 0 {
		return core.Corruptf("gk: %d trailing bytes", dec.Remaining())
	}
	na := NewAdaptive(eps)
	na.n = n
	for i := 0; i < tuples.len(); i++ {
		an := &anode{g: tuples.gaps[i], del: tuples.dels[i], hidx: -1}
		an.node = na.list.Insert(tuples.vals[i], an)
	}
	// Wire the heap: every tuple except the last has a successor.
	for node := na.list.First(); node != nil; node = node.Next() {
		na.heapPush(node.Value)
	}
	*a = *na
	return nil
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (t *Theory) MarshalBinary() ([]byte, error) { return t.AppendBinary(nil) }

// AppendBinary implements core.AppendMarshaler.
func (t *Theory) AppendBinary(dst []byte) ([]byte, error) {
	return marshalTuples(dst, codecKindTheory, t.eps, t.n, t.seq, func(e *core.Encoder) {
		e.I64(int64(t.sinceCmp))
	}), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (t *Theory) UnmarshalBinary(data []byte) error {
	eps, n, tuples, dec, err := unmarshalTuples(codecKindTheory, data)
	if err != nil {
		return err
	}
	sinceCmp := int(dec.I64())
	if err := dec.Err(); err != nil {
		return err
	}
	if dec.Remaining() != 0 {
		return core.Corruptf("gk: %d trailing bytes", dec.Remaining())
	}
	nt := NewTheory(eps)
	nt.n = n
	nt.sinceCmp = sinceCmp
	for i := 0; i < tuples.len(); i++ {
		nt.list.Insert(tuples.vals[i], &tnode{g: tuples.gaps[i], del: tuples.dels[i]})
	}
	*t = *nt
	return nil
}

// marshalBuffered encodes a buffered variant (Array, Biased): the tuple
// list, then the pending buffer and its capacity, so marshalling does
// not disturb the batch schedule.
func marshalBuffered(dst []byte, kind byte, eps float64, n int64, tuples *tcols, buf []uint64) []byte {
	return marshalTuples(dst, kind, eps, n, tuples.seq, func(e *core.Encoder) {
		e.U64s(buf)
		e.U64(uint64(cap(buf)))
	})
}

// unmarshalBuffered decodes marshalBuffered's bytes. The returned buffer
// holds the pending elements at the encoded capacity (at least
// minBuffer).
func unmarshalBuffered(kind byte, data []byte) (eps float64, n int64, tuples tcols, buf []uint64, err error) {
	eps, n, tuples, dec, err := unmarshalTuples(kind, data)
	if err != nil {
		return 0, 0, tcols{}, nil, err
	}
	buffered := dec.U64s()
	bufCap := int(dec.U64())
	if err := dec.Err(); err != nil {
		return 0, 0, tcols{}, nil, err
	}
	if dec.Remaining() != 0 {
		return 0, 0, tcols{}, nil, core.Corruptf("gk: %d trailing bytes", dec.Remaining())
	}
	if bufCap < len(buffered) || bufCap > 1<<22 {
		return 0, 0, tcols{}, nil, core.Corruptf("gk: implausible buffer capacity %d", bufCap)
	}
	if bufCap < minBuffer {
		bufCap = minBuffer
	}
	buf = make([]uint64, len(buffered), bufCap)
	copy(buf, buffered)
	return eps, n, tuples, buf, nil
}

// MarshalBinary implements encoding.BinaryMarshaler. Pending buffered
// elements are included, so marshalling does not disturb the batch
// schedule.
func (a *Array) MarshalBinary() ([]byte, error) { return a.AppendBinary(nil) }

// AppendBinary implements core.AppendMarshaler.
func (a *Array) AppendBinary(dst []byte) ([]byte, error) {
	return marshalBuffered(dst, codecKindArray, a.eps, a.n, &a.tuples, a.buf), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (a *Array) UnmarshalBinary(data []byte) error {
	eps, n, tuples, buf, err := unmarshalBuffered(codecKindArray, data)
	if err != nil {
		return err
	}
	na := NewArray(eps)
	na.n = n
	na.tuples = tuples
	na.buf = buf
	*a = *na
	return nil
}

// MarshalBinary implements encoding.BinaryMarshaler, in GKArray's
// layout under its own kind byte.
func (b *Biased) MarshalBinary() ([]byte, error) { return b.AppendBinary(nil) }

// AppendBinary implements core.AppendMarshaler.
func (b *Biased) AppendBinary(dst []byte) ([]byte, error) {
	return marshalBuffered(dst, codecKindBiased, b.eps, b.n, &b.tuples, b.buf), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (b *Biased) UnmarshalBinary(data []byte) error {
	eps, n, tuples, buf, err := unmarshalBuffered(codecKindBiased, data)
	if err != nil {
		return err
	}
	nb := NewBiased(eps)
	nb.n = n
	nb.tuples = tuples
	nb.buf = buf
	*b = *nb
	return nil
}
