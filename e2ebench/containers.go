package main

import (
	"sync"
	"time"

	sq "streamquantiles"
)

// shardedC is the surface shared by the sharded cash-register and
// turnstile containers that the workloads and the ladder drive.
type shardedC interface {
	queryable
	SpaceBytes() int64
	Invariants() error
	Shards() int
	Generation() uint64
	Components() int
	EpsBudget() float64
	Reshard(p int) error
	MarshalBinary() ([]byte, error)
	UnmarshalBinary(data []byte) error
	SetDrainObserver(obs sq.DrainObserver)
	SetCheckpointObserver(obs sq.CheckpointObserver)
}

// syncLat is a latency recorder the library's worker goroutines may
// feed concurrently (observer callbacks).
type syncLat struct {
	mu sync.Mutex
	ns []int64
}

func (s *syncLat) add(d time.Duration) {
	s.mu.Lock()
	s.ns = append(s.ns, int64(d))
	s.mu.Unlock()
}

func (s *syncLat) n() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.ns)
}

func (s *syncLat) maxUs() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return pctOf(s.ns, 100)
}

// observe returns a DrainObserver/CheckpointObserver-shaped hook that
// times each bracketed per-shard step into rec and opens a child span.
func observe(t *tracer, name string, rec *syncLat) func(shard int) func() {
	return func(int) func() {
		end := t.child(name)
		t0 := time.Now()
		return func() {
			rec.add(time.Since(t0))
			end()
		}
	}
}

// timedUnmarshal wraps a container as the recovery target, timing (and
// tracing) the decode so recovery time splits into checkpoint read and
// sharded unmarshal. Invariants is forwarded so recovery still
// validates the decoded container.
type timedUnmarshal struct {
	c    shardedC
	t    *tracer
	took time.Duration
}

func (u *timedUnmarshal) UnmarshalBinary(b []byte) error {
	defer u.t.child("sharded.UnmarshalBinary")()
	t0 := time.Now()
	err := u.c.UnmarshalBinary(b)
	u.took += time.Since(t0)
	return err
}

func (u *timedUnmarshal) Invariants() error { return u.c.Invariants() }
