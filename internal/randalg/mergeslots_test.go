package randalg

import "testing"

// TestMergeKeepsHierarchyBound merges a summary holding a few full
// buffers into an empty one — a merge that needs no mergeLowest — and
// then keeps streaming into the result. The merged summary must not
// keep the surplus slots the other side's buffers arrived in, or later
// updates fill them all without merging and exceed h+1 full buffers.
func TestMergeKeepsHierarchyBound(t *testing.T) {
	src := New(0.05, 1)
	for i := 0; i < 3*src.s; i++ {
		src.Update(uint64(i))
	}
	dst := New(0.05, 2)
	dst.Merge(src)
	if err := dst.Invariants(); err != nil {
		t.Fatalf("after merge: %v", err)
	}
	for i := 0; i < 64*dst.s; i++ {
		dst.Update(uint64(i))
		if i%dst.s == 0 {
			if err := dst.Invariants(); err != nil {
				t.Fatalf("after %d updates into the merged summary: %v", i+1, err)
			}
		}
	}
	if err := dst.Invariants(); err != nil {
		t.Fatal(err)
	}
}
