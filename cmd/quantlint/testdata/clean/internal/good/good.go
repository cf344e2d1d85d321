// Package good is a miniature well-behaved summary: seeded-determinism
// friendly, panic-free hot paths, tolerance-based float handling, and
// the Invariants contract in place.
package good

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// ErrEmpty is the documented empty-query sentinel.
var ErrEmpty = errors.New("good: empty summary")

// Good counts elements and remembers the last one.
type Good struct {
	n    int64
	last uint64
}

// New returns an empty summary.
func New() *Good { return &Good{} }

// Update never panics.
func (g *Good) Update(x uint64) {
	g.n++
	g.last = x
}

// Count reports the stream length.
func (g *Good) Count() int64 { return g.n }

// Quantile panics only with the ErrEmpty sentinel.
func (g *Good) Quantile(phi float64) uint64 {
	if g.n == 0 {
		panic(ErrEmpty)
	}
	return g.last
}

// Invariants implements the sanitizer contract.
func (g *Good) Invariants() error {
	if g.n < 0 {
		return fmt.Errorf("good: negative count %d", g.n)
	}
	return nil
}

// MarshalBinary encodes the count and the last element.
func (g *Good) MarshalBinary() ([]byte, error) {
	buf := make([]byte, 16)
	binary.BigEndian.PutUint64(buf, uint64(g.n))
	binary.BigEndian.PutUint64(buf[8:], g.last)
	return buf, nil
}

// UnmarshalBinary decodes MarshalBinary's bytes.
func (g *Good) UnmarshalBinary(data []byte) error {
	if len(data) != 16 {
		return fmt.Errorf("good: encoding is %d bytes, want 16", len(data))
	}
	g.n = int64(binary.BigEndian.Uint64(data))
	g.last = binary.BigEndian.Uint64(data[8:])
	return nil
}
