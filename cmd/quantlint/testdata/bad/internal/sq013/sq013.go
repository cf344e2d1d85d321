// Package sq013 trips exactly SQ013 via its registrations in the root
// quantiles.go: HalfWired can marshal but not unmarshal, and has
// neither a golden fixture nor a crash-matrix seed; Codecless accepts
// writes but has no codec at all.
package sq013

import "encoding/binary"

// HalfWired is a counter summary whose codec is wired in one direction
// only.
type HalfWired struct {
	n uint64
}

// New builds an empty HalfWired.
func New() *HalfWired { return &HalfWired{} }

// Update ingests one element.
func (h *HalfWired) Update(x uint64) { h.n++ }

// Count reports the stream length.
func (h *HalfWired) Count() uint64 { return h.n }

// Quantile answers every fraction with zero.
func (h *HalfWired) Quantile(phi float64) uint64 { return 0 }

// Invariants keeps the sanitizer contract, so SQ005 stays quiet.
func (h *HalfWired) Invariants() error { return nil }

// MarshalBinary encodes the count — with no UnmarshalBinary, golden
// fixture, or matrix entry answering for it.
func (h *HalfWired) MarshalBinary() ([]byte, error) {
	buf := make([]byte, 8)
	binary.BigEndian.PutUint64(buf, h.n)
	return buf, nil
}

// Codecless is a writable counter summary with no binary encoding: a
// checkpoint of it fails at run time.
type Codecless struct {
	n uint64
}

// Update ingests one element — the write method the missing-codec
// finding anchors at.
func (c *Codecless) Update(x uint64) { c.n++ }

// Count reports the stream length.
func (c *Codecless) Count() uint64 { return c.n }

// Quantile answers every fraction with zero.
func (c *Codecless) Quantile(phi float64) uint64 { return 0 }

// Invariants keeps the sanitizer contract, so SQ005 stays quiet.
func (c *Codecless) Invariants() error { return nil }
