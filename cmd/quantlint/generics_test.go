package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// genericsModule exercises the lock rules through generic types: a
// guarded field declared on slot[T] and accessed through an
// instantiation, and a `locks result.mu` helper with a clean caller, a
// leaking caller and a caller that touches the field after unlocking.
const genericsModule = `package box

import "sync"

type slot[T any] struct {
	mu sync.Mutex
	v  T // guarded by mu
}

type table[T any] struct {
	slots []*slot[T]
}

// lock returns slot i locked; the caller releases it.
//
// locks result.mu
func (t *table[T]) lock(i int) *slot[T] {
	sl := t.slots[i]
	sl.mu.Lock()
	return sl
}

func (t *table[T]) Get(i int) T {
	sl := t.lock(i)
	defer sl.mu.Unlock()
	return sl.v
}

func (t *table[T]) Leak(i int) {
	sl := t.lock(i)
	_ = sl
}

func (t *table[T]) Peek(i int) T {
	return t.slots[i].v
}

func (t *table[T]) Late(i int) T {
	sl := t.lock(i)
	sl.mu.Unlock()
	return sl.v
}

func First(t *table[int]) int {
	return t.slots[0].v
}
`

// TestLockRulesSeeThroughGenerics pins SQ010/SQ011 on generic code:
// annotations bind every instantiation of the declaring type, and a
// `locks result.<mu>` helper hands its lock to the caller — so the
// helper itself and a caller that defers the unlock are clean, while a
// leak or a late access is still reported.
func TestLockRulesSeeThroughGenerics(t *testing.T) {
	dir := t.TempDir()
	pkg := filepath.Join(dir, "internal", "box")
	if err := os.MkdirAll(pkg, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module genmod\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(pkg, "box.go"), []byte(genericsModule), 0o644); err != nil {
		t.Fatal(err)
	}
	fs, err := lintOnly(dir, []string{"./..."}, map[string]bool{"SQ010": true, "SQ011": true})
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	for _, f := range fs {
		for _, fn := range []string{"lock", "Get", "Leak", "Peek", "Late", "First"} {
			if strings.Contains(f.Msg, " in "+fn+" ") || strings.Contains(f.Msg, " of "+fn+":") {
				got[fn] = f.Rule
			}
		}
	}
	want := map[string]string{"Leak": "SQ011", "Peek": "SQ010", "Late": "SQ010", "First": "SQ010"}
	for fn, rule := range want {
		if got[fn] != rule {
			t.Errorf("%s: want %s, got %q", fn, rule, got[fn])
		}
	}
	for _, fn := range []string{"lock", "Get"} {
		if rule, ok := got[fn]; ok {
			t.Errorf("%s: want no finding, got %s", fn, rule)
		}
	}
	if len(fs) != len(want) {
		t.Errorf("want %d findings, got:\n%s", len(want), render(fs, true))
	}
}
