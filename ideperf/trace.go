package main

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"idebench/internal/dataset"
	"idebench/internal/engine"
	"idebench/internal/ingest"
	"idebench/internal/query"
	"idebench/internal/shard"
)

// layer names where a traced engine sits in the stack.
type layer int

const (
	layerFront       layer = iota // the engine behind the front server
	layerShardServer              // an engine behind a shard server
	layerBackend                  // a coordinator backend (a shard client)
)

// listenerKind names which server a traced listener belongs to.
type listenerKind int

const (
	listenFront listenerKind = iota // the server the benchmark client reaches
	listenHop                       // a shard server, reached by the coordinator
)

// spanKind is a span's name. Engine spans are layer*4 + op.
type spanKind uint8

const (
	opStart spanKind = iota
	opSnapshot
	opPartial
	opAppend
)

const (
	spanFrontWrite spanKind = 12 + iota
	spanHopWrite
	spanApply
	spanLog
	spanClientQuery
	spanClientIngest
	numSpanKinds
)

func engineSpan(l layer, op spanKind) spanKind { return spanKind(l)*4 + op }

var spanNames = [numSpanKinds]string{
	"engine.start_query", "engine.snapshot", "engine.partial", "engine.append",
	"shard.server.start_query", "shard.server.snapshot", "shard.server.partial", "shard.server.append",
	"shard.backend.start_query", "shard.backend.snapshot", "shard.backend.partial", "shard.backend.append",
	"server.write", "shard.hop.write", "ingest.apply", "durable.log_batch",
	"client.query", "client.ingest",
}

// span is one timed call at a layer boundary. Times are nanoseconds since
// the tracer's origin; n carries bytes for writes and 1 for a snapshot that
// returned the same RowsSeen as the previous call on its handle.
type span struct {
	id, parent, qid int64
	kind            spanKind
	start, end      int64
	n               int64
}

// tracer records spans from the benchmark's wrappers around each layer's
// public functions. Spans are kept in memory and written out at the end.
// A nil *tracer is valid and records nothing: untraced runs build the stack
// without any wrapper.
type tracer struct {
	origin time.Time
	on     atomic.Bool
	ids    atomic.Int64

	mu    sync.Mutex
	spans []span

	// active maps a trace ID to the front span currently running for it,
	// so nested backend calls name their parent.
	active sync.Map // int64 -> *atomic.Int64
	// applying is the ingest apply span in progress (applies are serial).
	applying atomic.Int64

	cmu       sync.Mutex
	consumers []float64
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) enabled() bool { return t != nil && t.on.Load() }

func (t *tracer) setEnabled(on bool) {
	if t != nil {
		t.on.Store(on)
	}
}

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) slot(qid int64) *atomic.Int64 {
	v, _ := t.active.LoadOrStore(qid, new(atomic.Int64))
	return v.(*atomic.Int64)
}

// parentOf returns the front span running for qid (0 when none).
func (t *tracer) parentOf(qid int64) int64 {
	if v, ok := t.active.Load(qid); ok {
		return v.(*atomic.Int64).Load()
	}
	return 0
}

// timed runs fn as a span of kind for qid. Front spans publish their ID
// while running so the backend calls they make record them as parent.
func (t *tracer) timed(l layer, op spanKind, qid int64, fn func() int64) {
	id := t.ids.Add(1)
	parent := int64(0)
	var slot *atomic.Int64
	if l == layerFront && qid != 0 {
		slot = t.slot(qid)
		slot.Store(id)
	} else if l == layerBackend {
		parent = t.parentOf(qid)
	}
	start := t.now()
	n := fn()
	end := t.now()
	if slot != nil {
		slot.CompareAndSwap(id, 0)
	}
	t.add(span{id: id, parent: parent, qid: qid, kind: engineSpan(l, op), start: start, end: end, n: n})
}

// --- engines, sessions and handles ---

// tEngine wraps an engine.Engine, timing query starts and the snapshot and
// partial calls of every handle it hands out. The capability types below
// embed it, so a wrapper carries exactly the optional capabilities of the
// engine it wraps.
type tEngine struct {
	inner engine.Engine
	tr    *tracer
	l     layer
}

func (e *tEngine) Name() string { return e.inner.Name() }
func (e *tEngine) Prepare(db *dataset.Database, opts engine.Options) error {
	return e.inner.Prepare(db, opts)
}
func (e *tEngine) OpenSession() engine.Session { return &tSession{inner: e.inner.OpenSession(), e: e} }
func (e *tEngine) StartQuery(q *query.Query) (engine.Handle, error) {
	return e.start(e.inner.StartQuery, q)
}
func (e *tEngine) LinkVizs(from, to string) { e.inner.LinkVizs(from, to) }
func (e *tEngine) DeleteViz(name string)    { e.inner.DeleteViz(name) }
func (e *tEngine) WorkflowStart()           { e.inner.WorkflowStart() }
func (e *tEngine) WorkflowEnd()             { e.inner.WorkflowEnd() }

func (e *tEngine) start(fn func(*query.Query) (engine.Handle, error), q *query.Query) (engine.Handle, error) {
	qid := traceID(q.VizName)
	var h engine.Handle
	var err error
	if e.tr.enabled() {
		e.tr.timed(e.l, opStart, qid, func() int64 { h, err = fn(q); return 0 })
	} else {
		h, err = fn(q)
	}
	if err != nil {
		return nil, err
	}
	return wrapHandle(h, e, qid), nil
}

type tSession struct {
	inner engine.Session
	e     *tEngine
}

func (s *tSession) StartQuery(q *query.Query) (engine.Handle, error) {
	return s.e.start(s.inner.StartQuery, q)
}
func (s *tSession) LinkVizs(from, to string) { s.inner.LinkVizs(from, to) }
func (s *tSession) DeleteViz(name string)    { s.inner.DeleteViz(name) }
func (s *tSession) WorkflowStart()           { s.inner.WorkflowStart() }
func (s *tSession) WorkflowEnd()             { s.inner.WorkflowEnd() }
func (s *tSession) Close()                   { s.inner.Close() }

// tHandle times Snapshot and flags calls whose RowsSeen did not move.
type tHandle struct {
	inner engine.Handle
	e     *tEngine
	qid   int64
	last  atomic.Int64
}

// tPartialHandle adds PartialSnapshot for inner handles that have it.
type tPartialHandle struct {
	*tHandle
	ps engine.PartialSnapshotter
}

func wrapHandle(h engine.Handle, e *tEngine, qid int64) engine.Handle {
	th := &tHandle{inner: h, e: e, qid: qid}
	th.last.Store(-2)
	if ps, ok := h.(engine.PartialSnapshotter); ok {
		return &tPartialHandle{tHandle: th, ps: ps}
	}
	return th
}

func (h *tHandle) Snapshot() *query.Result {
	if !h.e.tr.enabled() {
		return h.inner.Snapshot()
	}
	var res *query.Result
	h.e.tr.timed(h.e.l, opSnapshot, h.qid, func() int64 {
		res = h.inner.Snapshot()
		rows := int64(-1)
		if res != nil {
			rows = res.RowsSeen
		}
		if h.last.Swap(rows) == rows {
			return 1
		}
		return 0
	})
	return res
}

func (h *tHandle) Done() <-chan struct{} { return h.inner.Done() }
func (h *tHandle) Cancel()               { h.inner.Cancel() }

func (h *tPartialHandle) PartialSnapshot() *engine.Partial {
	if !h.e.tr.enabled() {
		return h.ps.PartialSnapshot()
	}
	var p *engine.Partial
	h.e.tr.timed(h.e.l, opPartial, h.qid, func() int64 { p = h.ps.PartialSnapshot(); return 0 })
	return p
}

// --- capability pieces, composed per engine shape ---

type appendCap struct {
	e *tEngine
	a engine.Appender
}

func (c appendCap) Watermark() int64 { return c.a.Watermark() }
func (c appendCap) Append(rows *dataset.Table) error {
	if !c.e.tr.enabled() {
		return c.a.Append(rows)
	}
	var err error
	id := c.e.tr.ids.Add(1)
	start := c.e.tr.now()
	err = c.a.Append(rows)
	c.e.tr.add(span{id: id, parent: c.e.tr.applying.Load(), kind: engineSpan(c.e.l, opAppend),
		start: start, end: c.e.tr.now()})
	return err
}

type wmCap struct{ w engine.Watermarker }

func (c wmCap) Watermark() int64 { return c.w.Watermark() }

type shedCap struct{ s engine.Shedder }

func (c shedCap) ShedSpeculation() int { return c.s.ShedSpeculation() }

type scanCap struct{ o engine.ScanObserver }

func (c scanCap) ActiveScanConsumers() int { return c.o.ActiveScanConsumers() }

type viewCap struct{ v engine.ViewSnapshotter }

func (c viewCap) SnapshotView() (*dataset.Database, []uint32) { return c.v.SnapshotView() }

type reorderCap struct{ r engine.ReorderedPreparer }

func (c reorderCap) PrepareReordered(db *dataset.Database, perm []uint32, opts engine.Options) error {
	return c.r.PrepareReordered(db, perm, opts)
}

type shardObsCap struct{ o engine.ShardObserver }

func (c shardObsCap) ShardWatermarks() []int64 { return c.o.ShardWatermarks() }

type topoCap struct{ o engine.TopologyObserver }

func (c topoCap) Topology() engine.Topology { return c.o.Topology() }

type sinkCap struct{ s ingest.Sink }

func (c sinkCap) ApplyBatch(b *ingest.Batch, rows *dataset.Table) error {
	return c.s.ApplyBatch(b, rows)
}

type pingCap struct{ p shard.Pinger }

func (c pingCap) Ping() error { return c.p.Ping() }

// tLocal is the shape of the progressive engine.
type tLocal struct {
	*tEngine
	appendCap
	shedCap
	scanCap
	viewCap
	reorderCap
}

// tCoord is the shape of the shard coordinator.
type tCoord struct {
	*tEngine
	appendCap
	shedCap
	scanCap
	shardObsCap
	topoCap
	sinkCap
}

// tRemote is the shape of a server.Remote shard client.
type tRemote struct {
	*tEngine
	wmCap
	pingCap
	sinkCap
}

// shape is the set of optional interfaces an engine implements: every
// engine.Capabilities field plus the shard tier's Pinger and ingest.Sink.
type shape struct {
	appender, watermarker, shedder, scan, view, reorder, shardObs, topo, partial bool
	pinger, sink                                                                 bool
}

func shapeOf(e engine.Engine) shape {
	c := engine.CapabilitiesOf(e)
	_, pinger := e.(shard.Pinger)
	_, sink := e.(ingest.Sink)
	return shape{
		appender: c.Appender != nil, watermarker: c.Watermarker != nil, shedder: c.Shedder != nil,
		scan: c.ScanObserver != nil, view: c.ViewSnapshotter != nil, reorder: c.ReorderedPreparer != nil,
		shardObs: c.ShardObserver != nil, topo: c.TopologyObserver != nil, partial: c.PartialSnapshotter != nil,
		pinger: pinger, sink: sink,
	}
}

var (
	localShape  = shape{appender: true, watermarker: true, shedder: true, scan: true, view: true, reorder: true}
	coordShape  = shape{appender: true, watermarker: true, shedder: true, scan: true, shardObs: true, topo: true, sink: true}
	remoteShape = shape{watermarker: true, pinger: true, sink: true}
)

// wrapEngine returns a traced engine with exactly e's optional
// capabilities. The server's ingest, shedding and partial paths select on
// them, so a lossy wrapper would trace a different program; an engine of
// an unknown shape is refused rather than wrapped lossily.
func wrapEngine(e engine.Engine, tr *tracer, l layer) (engine.Engine, error) {
	base := &tEngine{inner: e, tr: tr, l: l}
	c := engine.CapabilitiesOf(e)
	switch shapeOf(e) {
	case localShape:
		return &tLocal{base, appendCap{base, c.Appender}, shedCap{c.Shedder}, scanCap{c.ScanObserver},
			viewCap{c.ViewSnapshotter}, reorderCap{c.ReorderedPreparer}}, nil
	case coordShape:
		return &tCoord{base, appendCap{base, c.Appender}, shedCap{c.Shedder}, scanCap{c.ScanObserver},
			shardObsCap{c.ShardObserver}, topoCap{c.TopologyObserver}, sinkCap{e.(ingest.Sink)}}, nil
	case remoteShape:
		return &tRemote{base, wmCap{c.Watermarker}, pingCap{e.(shard.Pinger)}, sinkCap{e.(ingest.Sink)}}, nil
	}
	return nil, fmt.Errorf("trace: no capability-preserving wrapper for %T (shape %+v)", e, shapeOf(e))
}

// engine wraps e for tracing; without a tracer it returns e itself.
func (t *tracer) engine(e engine.Engine, l layer) (engine.Engine, error) {
	if t == nil {
		return e, nil
	}
	return wrapEngine(e, t, l)
}

// --- ingest hooks ---

// applyHook wraps the server's Options.Apply.
func (t *tracer) applyHook(apply func(*ingest.Batch) (int64, error)) func(*ingest.Batch) (int64, error) {
	if t == nil {
		return apply
	}
	return func(b *ingest.Batch) (int64, error) {
		if !t.enabled() {
			return apply(b)
		}
		id := t.ids.Add(1)
		t.applying.Store(id)
		start := t.now()
		wm, err := apply(b)
		end := t.now()
		t.applying.Store(0)
		t.add(span{id: id, kind: spanApply, start: start, end: end, n: int64(b.NumRows())})
		return wm, err
	}
}

// logHook wraps the applier's SetLog hook (WAL append plus fsync).
func (t *tracer) logHook(log func(*ingest.Batch) error) func(*ingest.Batch) error {
	if t == nil {
		return log
	}
	return func(b *ingest.Batch) error {
		if !t.enabled() {
			return log(b)
		}
		id := t.ids.Add(1)
		start := t.now()
		err := log(b)
		t.add(span{id: id, parent: t.applying.Load(), kind: spanLog, start: start, end: t.now()})
		return err
	}
}

// --- listeners ---

// listener wraps l so every write on an accepted connection is a span
// carrying its byte count. The server writes each WebSocket frame with one
// Write, so write spans count frames.
func (t *tracer) listener(l net.Listener, kind listenerKind) net.Listener {
	if t == nil {
		return l
	}
	return &tListener{Listener: l, tr: t, kind: spanFrontWrite + spanKind(kind)}
}

type tListener struct {
	net.Listener
	tr   *tracer
	kind spanKind
}

func (l *tListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &tConn{Conn: c, tr: l.tr, kind: l.kind}, nil
}

type tConn struct {
	net.Conn
	tr   *tracer
	kind spanKind
}

func (c *tConn) Write(p []byte) (int, error) {
	if !c.tr.enabled() {
		return c.Conn.Write(p)
	}
	id := c.tr.ids.Add(1)
	start := c.tr.now()
	n, err := c.Conn.Write(p)
	c.tr.add(span{id: id, kind: c.kind, start: start, end: c.tr.now(), n: int64(n)})
	return n, err
}

// --- samplers ---

// sampleConsumers samples the summed shared-scan consumer count of the
// progressive engines every 2 ms while tracing is on. The returned stop
// waits for the sampler to exit.
func (t *tracer) sampleConsumers(obs []engine.ScanObserver) (stop func()) {
	if t == nil {
		return func() {}
	}
	quit := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-quit:
				return
			case <-tick.C:
				if !t.enabled() {
					continue
				}
				n := 0
				for _, o := range obs {
					n += o.ActiveScanConsumers()
				}
				t.cmu.Lock()
				t.consumers = append(t.consumers, float64(n))
				t.cmu.Unlock()
			}
		}
	}()
	return func() { close(quit); <-done }
}

// writeSpans writes every span, plus one client span per query and per
// ingest batch, as CSV under the work directory.
func (t *tracer) writeSpans(cfg *config, sc *scored) (string, error) {
	path := filepath.Join(cfg.workDir, fmt.Sprintf("spans-%s-seed%d.csv", cfg.workload, cfg.seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id,parent,qid,name,start_ns,end_ns,n")
	put := func(s span) {
		fmt.Fprintf(w, "%d,%d,%d,%s,%d,%d,%d\n", s.id, s.parent, s.qid, spanNames[s.kind], s.start, s.end, s.n)
	}
	for _, s := range t.spans {
		put(s)
	}
	for _, r := range sc.all {
		if r.completed {
			start := int64(r.due.Sub(t.origin))
			put(span{id: t.ids.Add(1), qid: r.qid, kind: spanClientQuery, start: start, end: start + int64(r.final)})
		}
	}
	for _, ir := range sc.allIngests {
		if !ir.failed {
			start := int64(ir.due.Sub(t.origin))
			put(span{id: t.ids.Add(1), kind: spanClientIngest, start: start, end: start + int64(ir.ack)})
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}
