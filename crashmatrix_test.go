package streamquantiles

import (
	"bytes"
	"encoding"
	"errors"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"streamquantiles/internal/checkpoint"
	"streamquantiles/internal/faultio"
)

// The crash-recovery matrix: every summary with a binary codec ×
// every injected storage fault class. The property under test is the
// durability contract end to end — after any single fault, recovery
// returns a generation whose decoded summary is byte-identical in state
// (re-marshals to the exact recovered payload) and answers Rank and
// Quantile exactly like a reference decoded from the same payload,
// with its deep structural invariants intact.

// checkpointable is the method set the matrix needs from a summary.
type checkpointable interface {
	Summary
	encoding.BinaryMarshaler
	encoding.BinaryUnmarshaler
	Checkable
}

// matrixSummaries lists every registered summary that accepts writes;
// each owns a codec (quantlint rule SQ013), so this is exactly the set
// RecoverCheckpointFunc can rebuild.
var matrixSummaries = []struct {
	name  string
	fresh func() checkpointable
}{
	{"gkadaptive", func() checkpointable { return NewGKAdaptive(0.01) }},
	{"gktheory", func() checkpointable { return NewGKTheory(0.01) }},
	{"gkarray", func() checkpointable { return NewGKArray(0.01) }},
	{"gkbiased", func() checkpointable { return NewGKBiased(0.01) }},
	{"qdigest", func() checkpointable { return NewQDigest(0.01, 16) }},
	{"mrl99", func() checkpointable { return NewMRL99(0.01, 7) }},
	{"random", func() checkpointable { return NewRandom(0.01, 7) }},
	{"kll", func() checkpointable { return NewKLL(0.01, 7) }},
	{"dcm", func() checkpointable { return NewDCM(0.05, 16, DyadicConfig{Seed: 7}) }},
	{"dcs", func() checkpointable { return NewDCS(0.05, 16, DyadicConfig{Seed: 7}) }},
	{"drss", func() checkpointable { return NewDRSS(0.05, 16, DyadicConfig{Seed: 7}) }},
}

// feedRange streams deterministic elements [from, to) into s through
// whichever update interface it exposes.
func feedRange(s Summary, from, to int) {
	for i := from; i < to; i++ {
		x := (uint64(i) * 2654435761) % (1 << 16)
		switch u := s.(type) {
		case CashRegister:
			u.Update(x)
		case Turnstile:
			u.Insert(x)
		}
	}
}

// faultClasses are the storage failure scenarios. Each receives the
// pristine MemFS already holding generation 0 (payload blob0) and the
// would-be generation 1 payload blob1; it injects its fault around the
// second save and returns the payload recovery must yield plus the
// filesystem recovery must run through.
var faultClasses = []struct {
	name string
	run  func(t *testing.T, mem *faultio.MemFS, dir, label string, blob0, blob1 []byte) (want []byte, rfs checkpoint.FS)
}{
	{"tornwrite", func(t *testing.T, mem *faultio.MemFS, dir, label string, blob0, blob1 []byte) ([]byte, checkpoint.FS) {
		// The process dies mid-way through writing generation 1's temp
		// file: the tear lands inside the payload, the rename never
		// happens, generation 0 must survive untouched.
		inj := faultio.New(mem).CrashAfterBytes(40 + len(blob1)/2)
		ck, err := checkpoint.Open(dir, checkpoint.WithFS(inj))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ck.Save(label, blob1); !errors.Is(err, faultio.ErrCrashed) {
			t.Fatalf("torn save returned %v, want ErrCrashed", err)
		}
		return blob0, mem
	}},
	{"bitflip", func(t *testing.T, mem *faultio.MemFS, dir, label string, blob0, blob1 []byte) ([]byte, checkpoint.FS) {
		// Generation 1 publishes cleanly, then rots at rest: a single
		// flipped payload bit must fail the CRC and push recovery back
		// to generation 0.
		ck, err := checkpoint.Open(dir, checkpoint.WithFS(mem))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ck.Save(label, blob1); err != nil {
			t.Fatal(err)
		}
		names, err := mem.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		newest := names[len(names)-1]
		if err := mem.FlipBit(filepath.Join(dir, newest), 30+len(blob1)/3, 0x04); err != nil {
			t.Fatal(err)
		}
		return blob0, mem
	}},
	{"shortread", func(t *testing.T, mem *faultio.MemFS, dir, label string, blob0, blob1 []byte) ([]byte, checkpoint.FS) {
		// Generation 1 is intact but the read path delivers it in tiny
		// fragments; recovery must reassemble it exactly.
		ck, err := checkpoint.Open(dir, checkpoint.WithFS(mem))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ck.Save(label, blob1); err != nil {
			t.Fatal(err)
		}
		return blob1, faultio.New(mem).ShortReads(7)
	}},
	{"transientEIO", func(t *testing.T, mem *faultio.MemFS, dir, label string, blob0, blob1 []byte) ([]byte, checkpoint.FS) {
		// The first two writes of generation 1 fail with retryable EIO;
		// the capped-backoff retry loop must land it anyway.
		inj := faultio.New(mem).FailOp(faultio.OpWrite, 1, 2)
		ck, err := checkpoint.Open(dir, checkpoint.WithFS(inj),
			checkpoint.WithSleep(func(time.Duration) {}),
		)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ck.Save(label, blob1); err != nil {
			t.Fatalf("transient faults not retried away: %v", err)
		}
		return blob1, mem
	}},
}

// shardedMatrixCases are the elastic-container rows of the crash
// matrix: a checkpoint taken before an online reshard (generation 0)
// and one taken after it (generation 1), with the post-reshard payload
// carrying the swapped topology — including frozen rank components for
// the GK shrink. Recovery after any fault must land on one complete
// generation or the other, never a torn hybrid.
var shardedMatrixCases = []struct {
	name    string
	fresh   func(t *testing.T) *ShardedCashRegister
	reshard int
}{
	{"sharded-kll-grow", func(t *testing.T) *ShardedCashRegister {
		return mustShardedCash(t, 4, func() CashRegister { return NewKLL(0.01, 7) })
	}, 7},
	{"sharded-gkarray-shrink", func(t *testing.T) *ShardedCashRegister {
		return mustShardedCash(t, 4, func() CashRegister { return NewGKArray(0.01) })
	}, 2},
}

func TestCrashRecoveryMidReshard(t *testing.T) {
	const dir = "/ckpt"
	for _, ms := range shardedMatrixCases {
		for _, fc := range faultClasses {
			t.Run(ms.name+"/"+fc.name, func(t *testing.T) {
				// Generation 0: the pre-reshard topology.
				s := ms.fresh(t)
				feedRange(s, 0, 3000)
				blob0, err := s.MarshalBinary()
				if err != nil {
					t.Fatal(err)
				}
				// The reshard swaps the topology mid-stream; generation 1's
				// payload carries the new shard set (and, for the shrink,
				// the frozen components).
				if err := s.Reshard(ms.reshard); err != nil {
					t.Fatal(err)
				}
				feedRange(s, 3000, 5000)
				blob1, err := s.MarshalBinary()
				if err != nil {
					t.Fatal(err)
				}

				mem := faultio.NewMemFS()
				ck, err := checkpoint.Open(dir, checkpoint.WithFS(mem))
				if err != nil {
					t.Fatal(err)
				}
				if _, err := ck.Save(ms.name, blob0); err != nil {
					t.Fatal(err)
				}

				want, rfs := fc.run(t, mem, dir, ms.name, blob0, blob1)

				rec := ms.fresh(t)
				report, err := RecoverCheckpointFS(rfs, dir, rec)
				if err != nil {
					t.Fatalf("recovery: %v (report %v)", err, report)
				}
				got, err := rec.MarshalBinary()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("recovered state re-marshals to %d bytes differing from the %d-byte checkpoint payload: recovery produced a torn topology", len(got), len(want))
				}
				if err := rec.Invariants(); err != nil {
					t.Fatalf("recovered container invariants: %v", err)
				}

				// The recovered topology is exactly one of the two
				// generations, verified against a reference decode.
				ref := ms.fresh(t)
				if err := ref.UnmarshalBinary(want); err != nil {
					t.Fatal(err)
				}
				if rec.Shards() != ref.Shards() || rec.Generation() != ref.Generation() || rec.Components() != ref.Components() {
					t.Fatalf("recovered topology Shards=%d Gen=%d Comps=%d, reference %d/%d/%d",
						rec.Shards(), rec.Generation(), rec.Components(), ref.Shards(), ref.Generation(), ref.Components())
				}
				wantPost := bytes.Equal(want, blob1)
				if post := rec.Generation() == 1; post != wantPost {
					t.Fatalf("recovered generation %d does not match the surviving payload", rec.Generation())
				}
				if rec.Count() != ref.Count() {
					t.Fatalf("count %d vs reference %d", rec.Count(), ref.Count())
				}
				for _, phi := range []float64{0.05, 0.25, 0.5, 0.75, 0.95} {
					if a, b := rec.Quantile(phi), ref.Quantile(phi); a != b {
						t.Fatalf("Quantile(%v) = %d, reference %d", phi, a, b)
					}
				}
				for _, x := range []uint64{0, 1 << 10, 1 << 14, 1<<16 - 1} {
					if a, b := rec.Rank(x), ref.Rank(x); a != b {
						t.Fatalf("Rank(%d) = %d, reference %d", x, a, b)
					}
				}
			})
		}
	}
}

func TestCrashRecoveryMatrix(t *testing.T) {
	const dir = "/ckpt"
	for _, ms := range matrixSummaries {
		for _, fc := range faultClasses {
			t.Run(ms.name+"/"+fc.name, func(t *testing.T) {
				// Two stream epochs → two checkpoint payloads.
				s := ms.fresh()
				feedRange(s, 0, 3000)
				blob0, err := s.MarshalBinary()
				if err != nil {
					t.Fatal(err)
				}
				feedRange(s, 3000, 5000)
				blob1, err := s.MarshalBinary()
				if err != nil {
					t.Fatal(err)
				}

				mem := faultio.NewMemFS()
				ck, err := checkpoint.Open(dir, checkpoint.WithFS(mem))
				if err != nil {
					t.Fatal(err)
				}
				if _, err := ck.Save(ms.name, blob0); err != nil {
					t.Fatal(err)
				}

				want, rfs := fc.run(t, mem, dir, ms.name, blob0, blob1)

				rec := ms.fresh()
				report, err := RecoverCheckpointFS(rfs, dir, rec)
				if err != nil {
					t.Fatalf("recovery: %v (report %v)", err, report)
				}
				if report.Label != ms.name {
					t.Fatalf("recovered label %q", report.Label)
				}

				// Byte-identical state: re-marshalling the recovered
				// summary must reproduce the expected payload exactly.
				// (Query before re-marshal would flush buffered types.)
				got, err := rec.MarshalBinary()
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("recovered state re-marshals to %d bytes differing from the %d-byte checkpoint payload", len(got), len(want))
				}
				if err := CheckInvariants(rec); err != nil {
					t.Fatalf("recovered summary invariants: %v", err)
				}

				// Query-exactness against a reference decoded from the
				// same payload.
				ref := ms.fresh()
				if err := ref.UnmarshalBinary(want); err != nil {
					t.Fatal(err)
				}
				if rec.Count() != ref.Count() {
					t.Fatalf("count %d vs reference %d", rec.Count(), ref.Count())
				}
				for _, phi := range []float64{0.05, 0.25, 0.5, 0.75, 0.95} {
					if a, b := rec.Quantile(phi), ref.Quantile(phi); a != b {
						t.Fatalf("Quantile(%v) = %d, reference %d", phi, a, b)
					}
				}
				for _, x := range []uint64{0, 1 << 10, 1 << 14, 1<<16 - 1} {
					if a, b := rec.Rank(x), ref.Rank(x); a != b {
						t.Fatalf("Rank(%d) = %d, reference %d", x, a, b)
					}
				}

				// The fallback classes must have reported what they
				// skipped; the clean-read classes must not.
				switch fc.name {
				case "tornwrite":
					if report.Generation != 0 {
						t.Fatalf("recovered generation %d, want 0", report.Generation)
					}
				case "bitflip":
					if report.Generation != 0 || len(report.Skipped) != 1 {
						t.Fatalf("report %+v", report)
					}
					if !strings.Contains(report.Skipped[0].Reason, "CRC") {
						t.Fatalf("skip reason %q does not mention CRC", report.Skipped[0].Reason)
					}
				default:
					if report.Generation != 1 || len(report.Skipped) != 0 {
						t.Fatalf("report %+v", report)
					}
				}
			})
		}
	}
}
