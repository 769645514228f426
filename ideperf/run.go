package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"idebench/internal/core"
	"idebench/internal/dataset"
	"idebench/internal/groundtruth"
	"idebench/internal/ingest"
	"idebench/internal/metrics"
	"idebench/internal/query"
	"idebench/internal/server"
)

// window is the scored window, from the first scored arrival until every
// operation has finished, with the process CPU time, the runtime metrics
// and the resident-set peak measured over it.
type window struct {
	start, end time.Time
	cpu0, cpu  time.Duration
	rt0, rt1   rtSample
	peakRSSMB  float64
}

// open samples the window's start and, in a traced pass, starts recording
// spans.
func (w *window) open(tr *tracer) {
	sleepUntil(w.start)
	w.rt0 = sampleRuntime()
	w.cpu0 = cpuTime()
	tr.setEnabled(true)
}

// close samples the window's end once every operation has finished.
func (w *window) close(tr *tracer) (err error) {
	w.end = time.Now()
	tr.setEnabled(false)
	w.cpu = cpuTime() - w.cpu0
	w.rt1 = sampleRuntime()
	w.peakRSSMB, err = peakRSSMB()
	return err
}

// pass is one replay of the schedule against a freshly built stack.
type pass struct {
	sc       *scored
	win      *window
	c0, c1   counterSample
	walBytes int64
}

func (p *pass) cpuPerQuery() float64 { return ms(p.win.cpu) / float64(len(p.sc.scored)) }

func runWorkload(cfg *config) (*result, error) {
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return nil, err
	}
	db, err := core.BuildData(cfg.rows, false, poolSeed)
	if err != nil {
		return nil, err
	}
	st, err := buildStream(db, cfg.workflows, cfg.steps, cfg.sessions)
	if err != nil {
		return nil, err
	}
	sch := newSchedule(cfg)
	if err := st.checkCoverage(sch); err != nil {
		return nil, err
	}
	// Under ingest every query is scored against the harness's truth at its
	// watermark; otherwise against the static truth, computed up front.
	gt := groundtruth.New(db)
	if cfg.ingestRate == 0 {
		if err := st.warmTruth(gt, sch); err != nil {
			return nil, fmt.Errorf("ground truth: %w", err)
		}
	}

	// A traced run first replays the same schedule untraced on its own
	// stack: that pass is the baseline of bench.trace_overhead_pct.
	var base *pass
	var tr *tracer
	if cfg.trace {
		if base, err = runPass(cfg, db, st, sch, gt, nil); err != nil {
			return nil, err
		}
		tr = newTracer()
	}
	p, err := runPass(cfg, db, st, sch, gt, tr)
	if err != nil {
		return nil, err
	}

	info := hostInfo(cfg)
	info["interactions"] = st.interactions
	info["queries_in_stream"] = st.queries
	info["signatures"] = st.signatures
	replayed, pool := 0, 0
	for i := range st.sessions {
		replayed += len(sch.session(i))
		pool += len(st.sessions[i])
	}
	info["steps_replayed"] = fmt.Sprintf("%d of %d", replayed, pool)
	info["scored_window_s"] = p.win.end.Sub(p.win.start).Seconds()
	var out map[string]metricJSON
	var counts map[string]int
	if cfg.trace {
		out, counts = tr.layerMetrics(cfg, p, base)
	} else {
		var extra map[string]metricJSON
		out, extra, counts = p.e2e()
		for k, v := range extra {
			info[k] = fmt.Sprintf("%.4f %s (n=%d)", v.Value, v.Unit, counts[k])
		}
	}
	report(cfg, info, out, counts)
	if cfg.trace {
		path, err := tr.writeSpans(cfg, p.sc)
		if err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
		fmt.Printf("# spans written to %s\n", path)
	}
	return &result{Correct: true, Attempted: p.sc.attempted, Failed: p.sc.failed, Metrics: out}, nil
}

// runPass builds the workload's stack, replays the schedule against it
// (warm-up, then the scored window), scores every query and runs the
// correctness gates. A failed gate fails the run and prints no metrics.
func runPass(cfg *config, db *dataset.Database, st *stream, sch *schedule, gt *groundtruth.Cache, tr *tracer) (*pass, error) {
	var s *sut
	var err error
	switch cfg.workload {
	case wlExplore:
		s, err = buildSingle(cfg, db, tr, false)
	case wlIngest:
		s, err = buildSingle(cfg, db, tr, true)
	case wlSharded:
		s, err = buildSharded(cfg, db, tr)
	}
	if s != nil {
		defer s.close()
	}
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}

	rem, err := server.NewRemote(s.front.addr)
	if err != nil {
		return nil, err
	}
	var h *ingest.Harness
	if cfg.ingestRate > 0 {
		src, err := ingest.NewSource(20_000, poolSeed+17)
		if err != nil {
			rem.Close()
			return nil, err
		}
		h = ingest.NewHarness(db, src, rem)
	}
	rp := newReplay(cfg, rem, st, sch, h)
	clientOpen := true
	closeClient := func() {
		if clientOpen {
			rp.closeSessions()
			rem.Close()
			clientOpen = false
		}
	}
	defer closeClient()

	// Warm-up (unscored), then the scored window. The set-up's garbage is
	// collected and returned to the OS and the resident-set peak is reset
	// first, so the window pays for neither and its peak is the serving
	// path's.
	runtime.GC()
	debug.FreeOSMemory()
	if err := resetPeakRSS(); err != nil {
		return nil, err
	}
	start := time.Now().Add(20 * time.Millisecond)
	win := &window{start: start.Add(sch.arrivals[sch.warm])}
	opened := make(chan struct{})
	go func() { win.open(tr); close(opened) }()
	stopSampler := tr.sampleConsumers(s.scanEngines)
	cnt0 := sampleCounters(s.frontServer)
	runErr := rp.run(start)
	<-opened
	memErr := win.close(tr)
	stopSampler()
	cnt1 := sampleCounters(s.frontServer)
	if runErr != nil {
		return nil, runErr
	}
	if memErr != nil {
		return nil, memErr
	}

	sc, err := score(cfg, rp, gt, h)
	if err != nil {
		return nil, err
	}
	sc.setup = s.setup
	if err := gateSchedule(cfg, rp); err != nil {
		return nil, err
	}
	if err := gateWatermarks(sc.scored); err != nil {
		return nil, err
	}
	if err := gateCount(rem, db, h); err != nil {
		return nil, err
	}
	closeClient()
	if err := gateDrain(s.scanObservers); err != nil {
		return nil, err
	}
	p := &pass{sc: sc, win: win, c0: cnt0, c1: cnt1}
	if s.store != nil {
		p.walBytes = s.store.Status().WALBytes
	}
	return p, nil
}

// scored holds the evaluated outcomes of the scored arrivals.
type scored struct {
	scored    []*record
	qm        []metrics.QueryMetrics
	ingests   []*ingestRecord
	attempted int64
	failed    int64
	setup     []time.Duration
	lagsMs    []float64
	// all and allIngests are every operation, warm-up included.
	all          []*record
	allIngests   []*ingestRecord
	ingestedRows int64
}

// score evaluates every scored query against ground truth: the static
// cache, or the harness truth at the result's watermark under ingest.
func score(cfg *config, rp *replay, gt *groundtruth.Cache, h *ingest.Harness) (*scored, error) {
	sc := &scored{lagsMs: rp.lagsMs, all: rp.recs, allIngests: rp.ingests}
	for _, r := range rp.recs {
		if r.scored {
			sc.scored = append(sc.scored, r)
		}
	}
	for _, ir := range rp.ingests {
		if !ir.failed {
			sc.ingestedRows += int64(cfg.ingestRows)
		}
		if ir.scored {
			sc.ingests = append(sc.ingests, ir)
		}
	}
	if len(sc.scored) == 0 {
		return nil, fmt.Errorf("no query was scored")
	}
	sc.qm = make([]metrics.QueryMetrics, len(sc.scored))
	var mu sync.Mutex
	var firstErr error
	work := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				r := sc.scored[i]
				var truth *query.Result
				var err error
				if h != nil {
					wm := r.snapLive
					if r.res != nil && r.res.Watermark > 0 {
						wm = r.res.Watermark
					}
					truth, err = h.TruthAt(r.q, wm)
				} else {
					truth, err = gt.Get(r.q)
				}
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
					continue
				}
				if r.res == nil {
					sc.qm[i] = metrics.Violated(truth)
				} else {
					sc.qm[i] = metrics.Evaluate(r.res, truth, false)
				}
			}
		}()
	}
	for i := range sc.scored {
		work <- i
	}
	close(work)
	wg.Wait()
	if firstErr != nil {
		return nil, fmt.Errorf("scoring: %w", firstErr)
	}
	for _, r := range sc.scored {
		sc.attempted++
		if r.failed() {
			sc.failed++
		}
	}
	for _, ir := range sc.ingests {
		sc.attempted++
		if ir.failed {
			sc.failed++
		}
	}
	return sc, nil
}
