package main

import (
	"context"
	"runtime/metrics"
	"sort"
	"sync"
	"time"

	"perfdmf/internal/godbc"
)

// span is one timed call across a layer boundary, recorded from the
// benchmark's side of the boundary: around a call into formats, core,
// analysis or mining, or (through tracedConn) around a statement handed to
// godbc. Spans of one user operation share Op.
type span struct {
	ID, Parent, Op int64
	Layer, Name    string
	Start, End     time.Duration // since the tracer's epoch
	Alloc          uint64        // heap bytes allocated process-wide during the span
}

// tracer keeps spans in memory until the run ends. The shared activity
// records from two goroutines, hence the mutex; the closed loops record
// from one.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	next  int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) id() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// snapshotSpans returns the spans recorded so far.
func (t *tracer) snapshotSpans() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// lane is one goroutine's view of the tracer: the span its next call
// parents under. A nil lane, or one whose on flag is false, records
// nothing, so untraced runs pay one branch per call.
type lane struct {
	tr   *tracer
	on   bool
	cur  int64 // parent for spans started now (0 = none)
	op   int64
	rows int64 // rows fetched by the current operation's queries
}

// begin starts a new user operation: spans until the next begin share its
// id. Tracing for the operation is switched on or off as a whole, so a
// traced run can interleave traced and untraced operations and measure the
// tracing overhead from the difference.
func (l *lane) begin(traced bool) {
	if l == nil || l.tr == nil {
		return
	}
	l.on = traced
	l.cur = 0
	l.rows = 0
	l.op = l.tr.id()
}

// call runs fn inside a span of the given layer, parented under the lane's
// current span; calls made by fn through the lane nest below it.
func (l *lane) call(layer, name string, fn func() error) error {
	if l == nil || !l.on {
		return fn()
	}
	s := span{ID: l.tr.id(), Parent: l.cur, Op: l.op, Layer: layer, Name: name}
	prev := l.cur
	l.cur = s.ID
	a0 := heapAllocs()
	s.Start = time.Since(l.tr.epoch)
	err := fn()
	s.End = time.Since(l.tr.epoch)
	s.Alloc = heapAllocs() - a0
	l.cur = prev
	l.tr.add(s)
	return err
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
var allocMu sync.Mutex

// heapAllocs is the process's cumulative heap allocation in bytes.
func heapAllocs() uint64 {
	allocMu.Lock()
	defer allocMu.Unlock()
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// tracedConn decorates a godbc.Conn so every statement, prepare and
// transaction boundary becomes a "godbc" span under the lane's current
// span. It forwards the optional SpanBinder and TxTrier interfaces, so a
// session behaves exactly as it would on the bare connection.
type tracedConn struct {
	godbc.Conn
	l *lane
}

func (c *tracedConn) Exec(query string, args ...any) (res godbc.Result, err error) {
	err = c.l.call("godbc", "Exec", func() error {
		res, err = c.Conn.Exec(query, args...)
		return err
	})
	return res, err
}

func (c *tracedConn) Query(query string, args ...any) (rows godbc.Rows, err error) {
	err = c.l.call("godbc", "Query", func() error {
		rows, err = c.Conn.Query(query, args...)
		return err
	})
	if err != nil {
		return nil, err
	}
	return c.count(rows), nil
}

func (c *tracedConn) Prepare(query string) (st godbc.Stmt, err error) {
	err = c.l.call("godbc", "Prepare", func() error {
		st, err = c.Conn.Prepare(query)
		return err
	})
	if err != nil {
		return nil, err
	}
	return &tracedStmt{Stmt: st, c: c}, nil
}

func (c *tracedConn) Begin() error {
	return c.l.call("godbc", "Begin", c.Conn.Begin)
}

func (c *tracedConn) Commit() error {
	return c.l.call("godbc", "Commit", c.Conn.Commit)
}

func (c *tracedConn) Rollback() error {
	return c.l.call("godbc", "Rollback", c.Conn.Rollback)
}

// BindSpanContext forwards godbc.SpanBinder. Every connection the
// benchmark wraps is a file: or mem: connection, which implements it.
func (c *tracedConn) BindSpanContext(ctx context.Context) {
	c.Conn.(godbc.SpanBinder).BindSpanContext(ctx)
}

// TryBegin forwards godbc.TxTrier, which file: and mem: connections
// implement.
func (c *tracedConn) TryBegin() (ok bool, err error) {
	err = c.l.call("godbc", "Begin", func() error {
		ok, err = c.Conn.(godbc.TxTrier).TryBegin()
		return err
	})
	return ok, err
}

type tracedStmt struct {
	godbc.Stmt
	c *tracedConn
}

func (s *tracedStmt) Exec(args ...any) (res godbc.Result, err error) {
	err = s.c.l.call("godbc", "Exec", func() error {
		res, err = s.Stmt.Exec(args...)
		return err
	})
	return res, err
}

func (s *tracedStmt) Query(args ...any) (rows godbc.Rows, err error) {
	err = s.c.l.call("godbc", "Query", func() error {
		rows, err = s.Stmt.Query(args...)
		return err
	})
	if err != nil {
		return nil, err
	}
	return s.c.count(rows), nil
}

// count wraps a traced operation's cursor so the rows it yields are added
// to the lane's row count.
func (c *tracedConn) count(rows godbc.Rows) godbc.Rows {
	if !c.l.on {
		return rows
	}
	return &countedRows{Rows: rows, n: &c.l.rows}
}

type countedRows struct {
	godbc.Rows
	n *int64
}

func (r *countedRows) Next() bool {
	ok := r.Rows.Next()
	if ok {
		*r.n++
	}
	return ok
}

// layerTime is the traced time of one layer operation ("core UploadTrial",
// "godbc Exec"), summed over spans.
type layerTime struct {
	Layer, Name      string
	Count            int
	Total, Self      time.Duration
	Alloc, SelfAlloc uint64
}

// selfTimes folds spans into per-(layer, name) totals. A span's self time
// is its duration minus the part of that interval its children cover; its
// self allocation is its bytes minus its children's.
func selfTimes(spans []span) []layerTime {
	kids := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	acc := make(map[[2]string]*layerTime)
	for _, s := range spans {
		k := [2]string{s.Layer, s.Name}
		lt := acc[k]
		if lt == nil {
			lt = &layerTime{Layer: s.Layer, Name: s.Name}
			acc[k] = lt
		}
		lt.Count++
		lt.Total += s.End - s.Start
		lt.Self += s.End - s.Start - covered(s, kids[s.ID])
		lt.Alloc += s.Alloc
		var kidAlloc uint64
		for _, c := range kids[s.ID] {
			kidAlloc += c.Alloc
		}
		if kidAlloc < s.Alloc {
			lt.SelfAlloc += s.Alloc - kidAlloc
		}
	}
	out := make([]layerTime, 0, len(acc))
	for _, lt := range acc {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Layer != out[j].Layer {
			return out[i].Layer < out[j].Layer
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent span, children []span) time.Duration {
	if len(children) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi time.Duration
	for i, v := range iv {
		if i == 0 || v[0] > curHi {
			total += curHi - curLo
			curLo, curHi = v[0], v[1]
			continue
		}
		curHi = max(curHi, v[1])
	}
	return total + curHi - curLo
}
