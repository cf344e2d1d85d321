package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Tracing for the traced run (--trace 1). The benchmark opens a span
// around every public call it makes into the library; the summary
// wrappers (wrap.go), the container observer hooks and the wrapping
// unmarshaler open child spans inside those calls. Spans stay in memory
// and are written out when the run ends. A layer's self time is its
// spans' durations minus the part covered by their children.

// layerNames are the repository modules the trace attributes time to;
// "safe" covers the Safe wrappers together with internal/snapshot,
// whose epoch cache answers their warm queries.
var layerNames = []string{"kll", "qdigest", "dyadic", "safe", "sharded", "checkpoint"}

// shareNames maps a layer to the per-layer metric reporting its share.
var shareNames = map[string]string{
	"kll": "share.kll", "qdigest": "share.qdigest", "dyadic": "share.dyadic",
	"safe": "share.safe_snapshot", "sharded": "share.sharded", "checkpoint": "share.checkpoint",
}

func layerOf(name string) int8 {
	l, _, _ := strings.Cut(name, ".")
	return int8(slices.Index(layerNames, l))
}

type span struct {
	name       string
	layer      int8
	orphan     bool  // a child span opened where no parent was open
	op         int32 // spans of one operation share this ID
	parent     int32 // index into tracer.spans, -1 for a root
	gid        int64
	start, end int64 // ns since the tracer's origin; end -1 while open
}

// tracer records spans while active. A nil *tracer records nothing.
type tracer struct {
	origin time.Time
	active atomic.Bool
	limit  int

	mu      sync.Mutex
	spans   []span
	open    map[int64][]int32 // goroutine ID → stack of open spans
	nextOp  int32
	dropped int
}

func newTracer(limit int) *tracer {
	return &tracer{origin: time.Now(), limit: limit, open: map[int64][]int32{}}
}

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

// begin opens a span on goroutine gid. A child span (one opened by a
// wrapper or hook inside a library call) with nothing open on its
// goroutine ran on a library worker goroutine; it is marked an orphan
// and given a parent by time containment when the trace is analysed.
func (t *tracer) begin(gid int64, name string, child bool) int32 {
	if t == nil || !t.active.Load() {
		return -1
	}
	sp := span{name: name, layer: layerOf(name), parent: -1, gid: gid, start: t.now(), end: -1}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= t.limit {
		t.dropped++
		return -1
	}
	if st := t.open[gid]; len(st) > 0 {
		sp.parent = st[len(st)-1]
		sp.op = t.spans[sp.parent].op
	} else {
		t.nextOp++
		sp.op = t.nextOp
		sp.orphan = child
	}
	i := int32(len(t.spans))
	t.spans = append(t.spans, sp)
	t.open[gid] = append(t.open[gid], i)
	return i
}

func (t *tracer) end(gid int64, i int32) {
	if i < 0 {
		return
	}
	e := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[i].end = e
	st := t.open[gid]
	if k := slices.Index(st, i); k >= 0 {
		st = slices.Delete(st, k, k+1)
	}
	if len(st) == 0 {
		delete(t.open, gid)
	} else {
		t.open[gid] = st
	}
}

// child opens a span from inside a library call, on whatever goroutine
// the library runs it; the returned func closes it.
func (t *tracer) child(name string) func() {
	if t == nil || !t.active.Load() {
		return func() {}
	}
	gid := curGID()
	i := t.begin(gid, name, true)
	return func() { t.end(gid, i) }
}

// curGID parses the running goroutine's ID from its stack header
// ("goroutine 42 [running]:"). Only traced runs pay for it.
func curGID() int64 {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	b = bytes.TrimPrefix(b, []byte("goroutine "))
	if k := bytes.IndexByte(b, ' '); k > 0 {
		b = b[:k]
	}
	id, _ := strconv.ParseInt(string(b), 10, 64)
	return id
}

// gctx is one benchmark goroutine's handle on the tracer.
type gctx struct {
	t   *tracer
	gid int64
}

func newG(t *tracer) *gctx {
	g := &gctx{t: t}
	if t != nil {
		g.gid = curGID()
	}
	return g
}

func (g *gctx) begin(name string) int32 {
	if g.t == nil {
		return -1
	}
	return g.t.begin(g.gid, name, false)
}

func (g *gctx) end(i int32) {
	if g.t != nil && i >= 0 {
		g.t.end(g.gid, i)
	}
}

// selfTimes closes spans still open at stop, gives orphans a parent —
// the shortest container-layer span of another goroutine enclosing
// them — and returns each layer's self time in ns.
func (t *tracer) selfTimes() []int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	stop := t.now()
	sp := t.spans
	for i := range sp {
		if sp[i].end < 0 {
			sp[i].end = stop
		}
	}
	byStart := make([]int32, len(sp))
	for i := range byStart {
		byStart[i] = int32(i)
	}
	slices.SortFunc(byStart, func(a, b int32) int { return int(sp[a].start - sp[b].start) })
	var maxDur int64
	for i := range sp {
		maxDur = max(maxDur, sp[i].end-sp[i].start)
	}
	container := func(l int8) bool {
		return l >= 0 && layerNames[l] != "kll" && layerNames[l] != "qdigest" && layerNames[l] != "dyadic"
	}
	for i := range sp {
		o := &sp[i]
		if !o.orphan {
			continue
		}
		k, _ := slices.BinarySearchFunc(byStart, o.start+1, func(j int32, x int64) int { return int(sp[j].start - x) })
		best, bestDur := int32(-1), int64(-1)
		for k--; k >= 0 && sp[byStart[k]].start >= o.start-maxDur; k-- {
			c := &sp[byStart[k]]
			j := byStart[k]
			if j == int32(i) || c.gid == o.gid || !container(c.layer) || c.end < o.end {
				continue
			}
			if d := c.end - c.start; best < 0 || d < bestDur {
				best, bestDur = j, d
			}
		}
		if best >= 0 {
			o.parent, o.op = best, sp[best].op
		}
	}
	// Sort children by (parent, start) and subtract each parent's
	// covered interval union from its duration.
	self := make([]int64, len(sp))
	var kids []int32
	for i := range sp {
		self[i] = sp[i].end - sp[i].start
		if sp[i].parent >= 0 {
			kids = append(kids, int32(i))
		}
	}
	slices.SortFunc(kids, func(a, b int32) int {
		if pa, pb := sp[a].parent, sp[b].parent; pa != pb {
			return int(pa - pb)
		}
		return int(sp[a].start - sp[b].start)
	})
	for lo := 0; lo < len(kids); {
		p := sp[kids[lo]].parent
		hi := lo
		var covered, curS, curE int64 = 0, -1, -1
		for ; hi < len(kids) && sp[kids[hi]].parent == p; hi++ {
			c := sp[kids[hi]]
			s, e := max(c.start, sp[p].start), min(c.end, sp[p].end)
			if e <= s {
				continue
			}
			if s > curE {
				covered += curE - curS
				curS, curE = s, e
			} else {
				curE = max(curE, e)
			}
		}
		covered += curE - curS
		self[p] -= covered
		lo = hi
	}
	out := make([]int64, len(layerNames))
	for i := range sp {
		if sp[i].layer >= 0 {
			out[sp[i].layer] += max(self[i], 0)
		}
	}
	return out
}

// write dumps the spans as CSV: op,id,parent,name,goroutine,start_ns,end_ns.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "op,id,parent,name,goroutine,start_ns,end_ns")
	t.mu.Lock()
	for i, s := range t.spans {
		fmt.Fprintf(w, "%d,%d,%d,%s,%d,%d,%d\n", s.op, i, s.parent, s.name, s.gid, s.start, s.end)
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
