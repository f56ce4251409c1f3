package main

import (
	"bufio"
	"cmp"
	"compress/gzip"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"
)

// spanName indexes spanNames. Root spans are client.<class>; every
// other span times one call into a layer's public function, and its
// layer is the name's first dot-separated element.
type spanName uint8

const (
	spClientInsert spanName = iota
	spClientUpdate
	spClientDelete
	spClientPoint
	spClientScanAgg
	spMvccBegin
	spCoreInsert
	spCoreUpdate
	spCoreDelete
	spCoreViewOpen
	spCoreGet
	spCoreAggregate
	spCoreCommit
	spSQLCompile
	spSQLExecPoint
	spSQLExecInsert
	spSQLExecUpdate
	spSQLExecDelete
	spSQLExecScanAgg
	numSpanNames
)

var spanNames = [numSpanNames]string{
	"client.insert", "client.update", "client.delete", "client.point", "client.scanagg",
	"mvcc.begin",
	"core.insert", "core.update", "core.delete", "core.view_open", "core.get", "core.aggregate", "core.commit",
	"sql.compile",
	"sql.execute.point", "sql.execute.insert", "sql.execute.update", "sql.execute.delete", "sql.execute.scanagg",
}

func (n spanName) String() string { return spanNames[n] }

// layer returns the layer a span belongs to.
func (n spanName) layer() string {
	l, _, _ := strings.Cut(spanNames[n], ".")
	return l
}

// layers lists every layer a span can belong to, in report order.
var layers = []string{"client", "mvcc", "core", "sql"}

// span is one timed interval. Times are nanoseconds since the
// tracer's epoch; parent indexes the same tracer's spans (-1 = root).
type span struct {
	req        uint64
	parent     int32
	name       spanName
	start, end int64
}

// tracer records one client goroutine's spans in memory; they are
// written out when the run ends. A nil tracer records nothing, which
// is how the untraced run pays only a nil check per call site.
type tracer struct {
	epoch time.Time
	spans []span
	req   uint64 // request id of the current root span
	root  int32  // index of the current root span
}

func newTracer(epoch time.Time, client int) *tracer {
	// Request ids are unique across clients: the client number sits in
	// the top byte.
	return &tracer{epoch: epoch, req: uint64(client) << 56, spans: make([]span, 0, 1<<16)}
}

// begin opens a root span for a new request and returns its index.
func (t *tracer) begin(name spanName) int32 {
	if t == nil {
		return -1
	}
	t.req++
	t.root = int32(len(t.spans))
	t.spans = append(t.spans, span{req: t.req, parent: -1, name: name, start: int64(time.Since(t.epoch))})
	return t.root
}

// child opens a span under the current root.
func (t *tracer) child(name spanName) int32 {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{req: t.req, parent: t.root, name: name, start: int64(time.Since(t.epoch))})
	return int32(len(t.spans) - 1)
}

// end closes span i.
func (t *tracer) end(i int32) {
	if t == nil {
		return
	}
	t.spans[i].end = int64(time.Since(t.epoch))
}

// selfTimes returns each span's duration minus the part of its
// interval that its children cover. Overlapping children count once,
// and a child's time outside its parent is not subtracted.
func selfTimes(spans []span) []int64 {
	// Group the children's intervals by parent in one flat array:
	// start[p] is where parent p's children begin in ivs.
	start := make([]int32, len(spans)+1)
	for _, s := range spans {
		if s.parent >= 0 {
			start[s.parent+1]++
		}
	}
	for i := range spans {
		start[i+1] += start[i]
	}
	ivs := make([][2]int64, start[len(spans)])
	next := slices.Clone(start[:len(spans)])
	for _, s := range spans {
		if s.parent >= 0 {
			ivs[next[s.parent]] = [2]int64{s.start, s.end}
			next[s.parent]++
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		out[i] = s.end - s.start - covered(s.start, s.end, ivs[start[i]:start[i+1]])
	}
	return out
}

// covered returns the length of [lo, hi) covered by the union of ivs.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	slices.SortFunc(ivs, func(a, b [2]int64) int { return cmp.Compare(a[0], b[0]) })
	var total int64
	cur := lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// writeSpans writes every client's spans to path as gzip-compressed
// tab-separated lines: client, request, span index, parent index,
// name, start and end in ns since the run's epoch.
func writeSpans(path string, tracers []*tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	zw, err := gzip.NewWriterLevel(f, gzip.BestSpeed)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(zw, 1<<20)
	fmt.Fprintln(w, "client\treq\tspan\tparent\tname\tstart_ns\tend_ns")
	for c, t := range tracers {
		for i, s := range t.spans {
			fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%s\t%d\t%d\n", c, s.req, i, s.parent, s.name, s.start, s.end)
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	if err := zw.Close(); err != nil {
		return err
	}
	return f.Close()
}
