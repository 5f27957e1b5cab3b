package main

import (
	"bufio"
	"cmp"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"
)

// span is one timed call into a layer: name, start, end, the span that
// caused it and the operation it belongs to. Times are nanoseconds since
// the recorder was created. The layer is the part of the name before
// the first dot.
type span struct {
	ID     int32
	Parent int32 // -1 for a root
	Op     int32
	Name   string
	Start  int64
	End    int64
	// Mallocs at start and end, only in the allocation pass.
	MallocsStart, MallocsEnd uint64
}

// recorder collects spans in memory. The replay it instruments is
// serial — one goroutine, one operation in flight — so the open spans
// form a stack and the parent of a new span is the top of it.
type recorder struct {
	on    bool // false: begin and end do nothing (the spans-off pass)
	mem   bool // read MemStats.Mallocs at every boundary (slow, exact)
	epoch time.Time
	spans []span
	open  []int32
	op    int32
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

func (r *recorder) begin(name string) int32 {
	if !r.on {
		return -1
	}
	parent := int32(-1)
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	id := int32(len(r.spans))
	s := span{ID: id, Parent: parent, Op: r.op, Name: name}
	if r.mem {
		s.MallocsStart = mallocs()
	}
	s.Start = int64(time.Since(r.epoch))
	r.spans = append(r.spans, s)
	r.open = append(r.open, id)
	return id
}

func (r *recorder) end(id int32) {
	if id < 0 {
		return
	}
	s := &r.spans[id]
	s.End = int64(time.Since(r.epoch))
	if r.mem {
		s.MallocsEnd = mallocs()
	}
	r.open = r.open[:len(r.open)-1]
}

func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// selfTimes returns, for every span, its duration minus the part of it
// its direct children cover. Children may overlap each other and may
// stick out of the parent; only the union of their intervals, clipped to
// the parent, is subtracted.
func selfTimes(spans []span) []int64 {
	return selfOf(spans, func(s *span) (int64, int64) { return s.Start, s.End })
}

// selfAllocs is selfTimes on the allocation counter: the mallocs between
// a span's boundaries that no child span accounts for.
func selfAllocs(spans []span) []int64 {
	return selfOf(spans, func(s *span) (int64, int64) { return int64(s.MallocsStart), int64(s.MallocsEnd) })
}

func selfOf(spans []span, bounds func(*span) (int64, int64)) []int64 {
	children := make(map[int32][][2]int64)
	for i := range spans {
		s := &spans[i]
		if s.Parent >= 0 {
			lo, hi := bounds(s)
			children[s.Parent] = append(children[s.Parent], [2]int64{lo, hi})
		}
	}
	self := make([]int64, len(spans))
	for i := range spans {
		lo, hi := bounds(&spans[i])
		self[i] = hi - lo
		kids := children[spans[i].ID]
		slices.SortFunc(kids, func(a, b [2]int64) int { return cmp.Compare(a[0], b[0]) })
		covered, upTo := int64(0), lo
		for _, k := range kids {
			from, to := max(k[0], upTo), min(k[1], hi)
			if to > from {
				covered += to - from
				upTo = to
			}
		}
		self[i] -= covered
	}
	return self
}

// writeSpans writes the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	for i := range spans {
		s := &spans[i]
		fmt.Fprintf(w, `{"op":%d,"id":%d,"parent":%d,"name":%q,"start_ns":%d,"end_ns":%d}`+"\n",
			s.Op, s.ID, s.Parent, s.Name, s.Start, s.End)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
