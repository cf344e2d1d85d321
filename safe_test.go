package streamquantiles

import (
	"bytes"
	"encoding"
	"errors"
	"slices"
	"sync"
	"testing"

	"streamquantiles/internal/checkpoint"
	"streamquantiles/internal/faultio"
)

func TestSafeCashRegisterConcurrent(t *testing.T) {
	s := NewSafeCashRegister(NewGKArray(0.01))
	var wg sync.WaitGroup
	const workers = 8
	const per = 5000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				s.Update(uint64(w*per + i))
				if i%100 == 0 && s.Count() > 0 {
					_ = s.Quantile(0.5)
					_ = s.Rank(uint64(i))
				}
			}
		}(w)
	}
	wg.Wait()
	if s.Count() != workers*per {
		t.Fatalf("count %d, want %d", s.Count(), workers*per)
	}
	med := s.Quantile(0.5)
	want := uint64(workers * per / 2)
	slack := uint64(float64(workers*per) * 0.01)
	if med < want-slack || med > want+slack {
		t.Errorf("median %d outside %d±%d", med, want, slack)
	}
	qs := s.Quantiles([]float64{0.25, 0.75})
	if len(qs) != 2 || qs[0] > qs[1] {
		t.Errorf("Quantiles returned %v", qs)
	}
	if s.SpaceBytes() <= 0 {
		t.Error("space not positive")
	}
}

// TestSafeFlushersConcurrent drives each summary whose queries flush
// buffered work (GKArray, GKBiased, QDigest) with concurrent readers
// and a writer. Under -race this is the proof that the wrapper's one
// exclusive lock covers query-time flushes.
func TestSafeFlushersConcurrent(t *testing.T) {
	data := batchTestData(20000)
	for name, fresh := range map[string]func() CashRegister{
		"GKArray":  func() CashRegister { return NewGKArray(0.01) },
		"GKBiased": func() CashRegister { return NewGKBiased(0.01) },
		"QDigest":  func() CashRegister { return NewQDigest(0.01, 16) },
	} {
		t.Run(name, func(t *testing.T) {
			hammerSafe(t, NewSafeCashRegister(fresh()), fresh(), data)
		})
	}
}

// hammerSafe feeds data to s from one writer, alternating batches and
// single updates, while readers run the query mix, and then checks the
// answers. A query that flushes changes a Flusher's state (where its
// buffer merges decides what it compresses), so a twin fed the stream
// separately need not match. Instead s must hold every element, answer
// within ε of the truth, and — when twin is an empty summary of the
// family — answer exactly like twin restored from s's own Snapshot:
// what s serves from its epoch cache is what the summary it holds says.
func hammerSafe(t *testing.T, s *SafeCashRegister, twin CashRegister, data []uint64) {
	t.Helper()
	const readers = 3
	var wg sync.WaitGroup
	stop := make(chan struct{})
	phis := EvenPhis(0.05)
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if s.Count() == 0 {
					continue
				}
				_ = s.Rank(s.Quantile(0.5))
				_ = s.QuantileBatch(phis)
				_ = s.RankBatch(data[:8])
				_ = s.SpaceBytes()
			}
		}()
	}
	for i := 0; i < len(data); i += 100 {
		chunk := data[i:min(i+100, len(data))]
		if i%200 == 0 {
			s.UpdateBatch(chunk)
			continue
		}
		for _, x := range chunk {
			s.Update(x)
		}
	}
	close(stop)
	wg.Wait()
	if s.Count() != int64(len(data)) {
		t.Fatalf("count %d, want %d", s.Count(), len(data))
	}
	sorted := sortedCopy(data)
	for _, phi := range []float64{0.1, 0.5, 0.9} {
		rankWithinEps(t, sorted, phi, s.Quantile(phi), int64(0.01*float64(len(data)))+1)
	}
	if twin == nil {
		return
	}
	blob, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := twin.(encoding.BinaryUnmarshaler).UnmarshalBinary(blob); err != nil {
		t.Fatal(err)
	}
	matchOneShard(t, "after concurrent use", s, twin)
}

// TestSafeConcurrentReadersAndWriter drives dedicated reader goroutines
// against a continuous writer, on a summary whose queries are pure
// reads and on one whose queries flush buffered work. Under -race this
// is the proof that lock-free snapshot queries are sound: a query that
// touched the live summary outside the shard lock would be flagged.
func TestSafeConcurrentReadersAndWriter(t *testing.T) {
	summaries := map[string]CashRegister{
		"KLL-sharedreads":        NewKLL(0.02, 7),  // pure reader
		"GKArray-exclusivereads": NewGKArray(0.02), // Flusher
	}
	for name, inner := range summaries {
		t.Run(name, func(t *testing.T) {
			s := NewSafeCashRegister(inner)
			const n = 20000
			const readers = 4
			var wg sync.WaitGroup
			stop := make(chan struct{})
			for r := 0; r < readers; r++ {
				wg.Add(1)
				go func(r int) {
					defer wg.Done()
					for i := 0; ; i++ {
						select {
						case <-stop:
							return
						default:
						}
						if s.Count() == 0 {
							continue
						}
						q := s.Quantile(0.5)
						_ = s.Rank(q)
						_ = s.SpaceBytes()
						if i%64 == 0 {
							_ = s.Quantiles([]float64{0.25, 0.75})
						}
					}
				}(r)
			}
			for i := 0; i < n; i++ {
				s.Update(uint64(i))
			}
			close(stop)
			wg.Wait()
			if s.Count() != n {
				t.Fatalf("count %d, want %d", s.Count(), n)
			}
			med := s.Quantile(0.5)
			slack := uint64(float64(n) * 0.02)
			if med < n/2-slack || med > n/2+slack {
				t.Errorf("median %d outside %d±%d", med, n/2, slack)
			}
		})
	}
}

// TestSafeCheckpointWhileUpdating checkpoints a summary repeatedly while
// writers hammer it. Under -race this pins the Snapshot contract: marshal
// runs under the summary's lock, beside lock-free snapshot queries. Every
// published generation must decode into a self-consistent summary whose
// count reflects some prefix of the concurrent stream.
func TestSafeCheckpointWhileUpdating(t *testing.T) {
	for _, tc := range []struct {
		name  string
		fresh func() CashRegister
	}{
		// One pure reader and one Flusher (marshals its un-flushed
		// buffer).
		{"KLL", func() CashRegister { return NewKLL(0.02, 7) }},
		{"GKArray", func() CashRegister { return NewGKArray(0.02) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mem := faultio.NewMemFS()
			ck, err := checkpoint.Open("/ckpt", checkpoint.WithFS(mem), checkpoint.WithKeep(100))
			if err != nil {
				t.Fatal(err)
			}
			s := NewSafeCashRegister(tc.fresh())
			const n = 20000
			var wg sync.WaitGroup
			stop := make(chan struct{})
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					if _, err := s.Checkpoint(ck, tc.name); err != nil {
						t.Error(err)
						return
					}
				}
			}()
			for i := 0; i < n; i++ {
				s.Update(uint64(i))
			}
			close(stop)
			wg.Wait()
			if _, err := s.Checkpoint(ck, tc.name); err != nil {
				t.Fatal(err)
			}
			target := NewSafeCashRegister(tc.fresh())
			report, err := RecoverCheckpointFS(mem, "/ckpt", target)
			if err != nil {
				t.Fatal(err)
			}
			if report.Label != tc.name {
				t.Fatalf("recovered label %q, want %q", report.Label, tc.name)
			}
			if got := target.Count(); got != n {
				t.Fatalf("recovered count %d, want %d (final checkpoint)", got, n)
			}
			med := target.Quantile(0.5)
			slack := uint64(float64(n) * 0.02)
			if med < n/2-slack || med > n/2+slack {
				t.Errorf("recovered median %d outside %d±%d", med, n/2, slack)
			}
		})
	}
}

// TestSafeSnapshotRestoreRoundTrip pins Restore as the exact inverse of
// Snapshot, for both wrapper flavors.
func TestSafeSnapshotRestoreRoundTrip(t *testing.T) {
	s := NewSafeCashRegister(NewGKAdaptive(0.01))
	for i := 0; i < 5000; i++ {
		s.Update(uint64(i))
	}
	blob, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	restored := NewSafeCashRegister(NewGKAdaptive(0.5))
	if err := restored.Restore(blob); err != nil {
		t.Fatal(err)
	}
	if restored.Count() != s.Count() || restored.Quantile(0.5) != s.Quantile(0.5) {
		t.Fatalf("restored (count %d, median %d) differs from original (count %d, median %d)",
			restored.Count(), restored.Quantile(0.5), s.Count(), s.Quantile(0.5))
	}

	ts := NewSafeTurnstile(NewDCS(0.02, 16, DyadicConfig{Seed: 1}))
	for i := 0; i < 2000; i++ {
		ts.Insert(uint64(i % 65536))
	}
	tblob, err := ts.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	trestored := NewSafeTurnstile(NewDCS(0.02, 16, DyadicConfig{Seed: 99}))
	if err := trestored.Restore(tblob); err != nil {
		t.Fatal(err)
	}
	if trestored.Count() != ts.Count() || trestored.Quantile(0.5) != ts.Quantile(0.5) {
		t.Fatal("turnstile restore does not reproduce the original")
	}
}

// TestSafeGKBiasedSnapshotRestore: a Safe GKBiased restored from its
// Snapshot into a fresh wrapper is the same summary — after both take
// more data, their answers and re-encodings match exactly.
func TestSafeGKBiasedSnapshotRestore(t *testing.T) {
	data := batchTestData(30000)
	s := NewSafeCashRegister(NewGKBiased(0.01))
	s.UpdateBatch(data[:10000])
	for _, x := range data[10000:12345] {
		s.Update(x)
	}
	blob, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	restored := NewSafeCashRegister(NewGKBiased(0.5))
	if err := restored.Restore(blob); err != nil {
		t.Fatal(err)
	}
	for _, w := range []*SafeCashRegister{s, restored} {
		w.UpdateBatch(data[12345:20000])
		for _, x := range data[20000:] {
			w.Update(x)
		}
	}
	if s.Count() != restored.Count() {
		t.Fatalf("count %d, restored %d", s.Count(), restored.Count())
	}
	phis := []float64{0.0001, 0.001, 0.01, 0.1, 0.5, 0.9}
	if a, b := s.QuantileBatch(phis), restored.QuantileBatch(phis); !slices.Equal(a, b) {
		t.Fatalf("QuantileBatch %v, restored %v", a, b)
	}
	if a, b := s.RankBatch(data[:64]), restored.RankBatch(data[:64]); !slices.Equal(a, b) {
		t.Fatalf("RankBatch %v, restored %v", a, b)
	}
	a, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	b, err := restored.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("re-encodings differ (%d vs %d bytes)", len(a), len(b))
	}
}

// TestSafeCheckpointUnsupportedSummary pins the error path for summaries
// without codecs: a clean error, not a panic or silent no-op. Every
// registered writable summary has a codec, so the test wraps one in
// perItemOnly, whose method set hides it.
func TestSafeCheckpointUnsupportedSummary(t *testing.T) {
	s := NewSafeCashRegister(&perItemOnly{CashRegister: NewGKArray(0.01)})
	if _, err := s.Snapshot(); err == nil {
		t.Fatal("Snapshot on a codec-less summary did not error")
	}
	if err := s.Restore(nil); err == nil {
		t.Fatal("Restore on a codec-less summary did not error")
	}
	mem := faultio.NewMemFS()
	ck, err := checkpoint.Open("/ckpt", checkpoint.WithFS(mem))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Checkpoint(ck, "codecless"); err == nil {
		t.Fatal("Checkpoint on a codec-less summary did not error")
	}
	// Nothing may have been published.
	target := NewGKArray(0.01)
	if _, err := RecoverCheckpointFS(mem, "/ckpt", target); !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("recovery after failed checkpoint: %v, want ErrNoCheckpoint", err)
	}
}

func TestSafeTurnstileConcurrent(t *testing.T) {
	s := NewSafeTurnstile(NewDCS(0.02, 16, DyadicConfig{Seed: 1}))
	var wg sync.WaitGroup
	const workers = 4
	const per = 2000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				x := uint64((w*per + i) % 65536)
				s.Insert(x)
				if i%2 == 0 {
					s.Delete(x)
				}
			}
		}(w)
	}
	wg.Wait()
	if s.Count() != workers*per/2 {
		t.Fatalf("count %d, want %d", s.Count(), workers*per/2)
	}
	_ = s.Quantile(0.5)
	_ = s.Rank(1000)
	if s.SpaceBytes() <= 0 {
		t.Error("space not positive")
	}
}
