package sharded

import (
	"testing"
	"unsafe"

	"streamquantiles/internal/core"
)

// TestShardStructsPadded pins the hand-computed blank pad in
// shard[core.CashRegister] and shard[core.Turnstile]: the live fields
// must fit the assumed 40 bytes so each struct is exactly one
// cacheLine, and a generation's []T therefore never places two shards'
// hot fields on the same line. If a field is
// added the pad constant must be recomputed — this test is the tripwire.
func TestShardStructsPadded(t *testing.T) {
	if s := unsafe.Sizeof(shard[core.CashRegister]{}); s != cacheLine {
		t.Errorf("shard[core.CashRegister] is %d bytes, want exactly cacheLine (%d); recompute the blank pad", s, cacheLine)
	}
	if s := unsafe.Sizeof(shard[core.Turnstile]{}); s != cacheLine {
		t.Errorf("shard[core.Turnstile] is %d bytes, want exactly cacheLine (%d); recompute the blank pad", s, cacheLine)
	}
}

// TestRoundRobinCursorIsolated pins the blank lines around the legacy
// round-robin cursor: no other CashRegister field may land within a
// cacheLine of it, or handle-less writers would false-share with the
// topology fields the query path reads. (Go only word-aligns the struct
// itself, so the guarantee is blank space on both sides of rr, not an
// absolute line boundary.)
func TestRoundRobinCursorIsolated(t *testing.T) {
	var c CashRegister
	off := unsafe.Offsetof(c.rr)
	if before := unsafe.Offsetof(c.base) + unsafe.Sizeof(c.base); off-before < cacheLine {
		t.Errorf("only %d blank bytes before rr, want >= cacheLine (%d)", off-before, cacheLine)
	}
	if next := unsafe.Offsetof(c.wslot); next-off-unsafe.Sizeof(c.rr) < cacheLine-8 {
		t.Errorf("only %d blank bytes after rr, want >= %d", next-off-unsafe.Sizeof(c.rr), cacheLine-8)
	}
}
