package main

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"idebench/internal/engine"
	"idebench/internal/ingest"
	"idebench/internal/loadgen"
	"idebench/internal/query"
	"idebench/internal/server"
)

// record is one query's outcome. Every timing is measured from due, the
// instant the open-loop schedule said the query's interaction arrives.
type record struct {
	qid    int64
	q      *query.Query
	due    time.Time
	scored bool // not a warm-up query

	startErr  bool
	dropped   bool
	rejected  bool
	errored   bool // completed without a final frame it could use
	res       *query.Result
	snapLive  int64 // live watermark when the deadline snapshot was taken
	final     time.Duration
	completed bool
}

// ingestRecord is one append batch's outcome.
type ingestRecord struct {
	due    time.Time
	scored bool
	queue  time.Duration // due until the batch went out on the wire
	ack    time.Duration // due until the client saw the post-apply watermark
	failed bool
}

// schedule is a run's open-loop arrival plan, drawn from the workload seed
// before anything starts: the due offsets, from the start of the replay, of
// the interactions and of the append batches. Interactions are one Poisson
// process at the benchmark rate (loadgen.Poisson gaps); arrival k goes to
// session k mod S as that session's next step. The run offers a fixed
// number of arrivals, the expected count over the warm-up plus the window,
// and the first warm ones are the unscored warm-up: arrival k replays the
// same step under every seed, and only the timing differs.
type schedule struct {
	arrivals []time.Duration
	sessions int
	warm     int // warm-up arrivals
	ingests  []time.Duration
	warmIng  int // warm-up append batches
}

func newSchedule(cfg *config) *schedule {
	count := func(rate float64, d time.Duration) int { return int(math.Round(rate * d.Seconds())) }
	sch := &schedule{
		sessions: cfg.sessions,
		warm:     count(cfg.rate, cfg.warmup),
		warmIng:  count(cfg.ingestRate, cfg.warmup),
	}
	n := count(cfg.rate, cfg.warmup+cfg.window)
	sch.arrivals = poissonOffsets(rand.New(rand.NewSource(cfg.seed*7919)), cfg.rate, n)
	if cfg.ingestRate > 0 {
		rng := rand.New(rand.NewSource(cfg.seed*104729 + 1))
		sch.ingests = poissonOffsets(rng, cfg.ingestRate, count(cfg.ingestRate, cfg.warmup+cfg.window))
	}
	return sch
}

// poissonOffsets draws n arrivals with loadgen.Poisson gaps at rate.
func poissonOffsets(rng *rand.Rand, rate float64, n int) []time.Duration {
	p := loadgen.Poisson{Rate: rate}
	out := make([]time.Duration, n)
	var t time.Duration
	for k := range out {
		t += p.Gap(rng, int64(k), 0)
		out[k] = t
	}
	return out
}

// session returns the global arrival indices of session i, in order.
func (sch *schedule) session(i int) []int {
	var ks []int
	for k := i; k < len(sch.arrivals); k += sch.sessions {
		ks = append(ks, k)
	}
	return ks
}

// rejecter is the remote handle's admission-control capability.
type rejecter interface {
	Rejected() (bool, time.Duration)
}

// replay drives one open-loop run: each session replays its own steps at
// its share of the Poisson arrivals, independent of completion; every query is scored
// from a snapshot taken at due + TR and then followed to its final frame.
type replay struct {
	cfg      *config
	rem      *server.Remote
	sessions []engine.Session
	st       *stream
	sch      *schedule
	harness  *ingest.Harness // nil without ingest
	live     func() int64

	nextID      atomic.Int64
	outstanding atomic.Int64
	capHit      atomic.Bool
	wg          sync.WaitGroup

	mu      sync.Mutex
	recs    []*record
	ingests []*ingestRecord
	lagsMs  []float64
}

func newReplay(cfg *config, rem *server.Remote, st *stream, sch *schedule, h *ingest.Harness) *replay {
	r := &replay{cfg: cfg, rem: rem, st: st, sch: sch, harness: h}
	// The default session plus opened ones: at most cfg.sessions
	// connections, every in-flight query multiplexed over them.
	r.sessions = append(r.sessions, engine.NewEngineSession(rem))
	for i := 1; i < cfg.sessions; i++ {
		r.sessions = append(r.sessions, rem.OpenSession())
	}
	r.live = func() int64 { return int64(cfg.rows) }
	if h != nil {
		r.live = h.Watermark
	}
	return r
}

func (r *replay) closeSessions() {
	for _, s := range r.sessions[1:] {
		s.Close()
	}
}

// run offers the schedule from start and returns once every operation it
// started has finished (or the drain budget ran out).
func (r *replay) run(start time.Time) error {
	var gens sync.WaitGroup
	for i, sess := range r.sessions {
		gens.Add(1)
		go func(i int, sess engine.Session) {
			defer gens.Done()
			r.runSession(i, sess, start)
		}(i, sess)
	}
	if r.harness != nil {
		gens.Add(1)
		go func() {
			defer gens.Done()
			r.runIngest(start)
		}()
	}
	gens.Wait()
	done := make(chan struct{})
	go func() { r.wg.Wait(); close(done) }()
	select {
	case <-done:
		return nil
	case <-time.After(r.cfg.drain):
		return fmt.Errorf("%d operations still outstanding %v after the last arrival",
			r.outstanding.Load(), r.cfg.drain)
	}
}

func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

func (r *replay) lag(due time.Time) {
	l := ms(time.Since(due))
	r.mu.Lock()
	r.lagsMs = append(r.lagsMs, l)
	r.mu.Unlock()
}

// runSession replays session i's steps at its scheduled arrivals.
func (r *replay) runSession(i int, sess engine.Session, start time.Time) {
	names := map[string]string{} // viz name -> name of its latest query
	full := func(v string) string {
		if n, ok := names[v]; ok {
			return n
		}
		return v
	}
	steps := r.st.replayed(r.sch, i)
	for j, k := range r.sch.session(i) {
		due := start.Add(r.sch.arrivals[k])
		sleepUntil(due)
		r.lag(due)
		stp := steps[j]
		if stp.begin {
			if j > 0 {
				sess.WorkflowEnd()
			}
			sess.WorkflowStart()
			names = map[string]string{}
		}
		if stp.link != nil {
			sess.LinkVizs(full(stp.link[0]), full(stp.link[1]))
		}
		if stp.discard != "" {
			sess.DeleteViz(full(stp.discard))
			delete(names, stp.discard)
		}
		for _, q := range stp.queries {
			names[q.VizName] = r.issue(sess, q, due, k >= r.sch.warm)
		}
	}
	sess.WorkflowEnd()
}

// issue starts one query, tagged with a unique viz-name suffix that is its
// trace ID (Query.Signature ignores viz names, so reuse is unchanged), and
// hands it to a follower goroutine.
func (r *replay) issue(sess engine.Session, q *query.Query, due time.Time, scored bool) string {
	qid := r.nextID.Add(1)
	qc := *q
	qc.VizName = traceName(q.VizName, qid)
	rec := &record{qid: qid, q: q, due: due, scored: scored}
	r.mu.Lock()
	r.recs = append(r.recs, rec)
	r.mu.Unlock()
	if r.outstanding.Add(1) > int64(r.cfg.maxOutstanding) {
		r.outstanding.Add(-1)
		r.capHit.Store(true)
		rec.dropped = true
		return qc.VizName
	}
	h, err := sess.StartQuery(&qc)
	if err != nil {
		r.outstanding.Add(-1)
		rec.startErr = true
		return qc.VizName
	}
	r.wg.Add(1)
	go r.follow(rec, h)
	return qc.VizName
}

// follow takes the deadline snapshot at due + TR (the final itself when
// the query finished earlier), then waits for the final.
func (r *replay) follow(rec *record, h engine.Handle) {
	defer r.wg.Done()
	defer r.outstanding.Add(-1)
	deadline := time.NewTimer(time.Until(rec.due.Add(r.cfg.tr)))
	defer deadline.Stop()
	select {
	case <-h.Done():
		rec.final = time.Since(rec.due)
		rec.res, rec.snapLive = h.Snapshot(), r.live()
	case <-deadline.C:
		rec.res, rec.snapLive = h.Snapshot(), r.live()
		select {
		case <-h.Done():
			rec.final = time.Since(rec.due)
		case <-time.After(r.cfg.drain):
			h.Cancel()
			rec.errored = true
			return
		}
	}
	if rj, ok := h.(rejecter); ok {
		if rejected, _ := rj.Rejected(); rejected {
			rec.rejected = true
			return
		}
	}
	if h.Snapshot() == nil {
		rec.errored = true
		return
	}
	rec.completed = true
}

// runIngest sends the scheduled append batches through the client-side
// harness, which keeps the ground-truth lineage and forwards each batch over
// the default session; a waiter per batch times the post-apply watermark.
func (r *replay) runIngest(start time.Time) {
	for n, off := range r.sch.ingests {
		next := start.Add(off)
		sleepUntil(next)
		r.lag(next)
		rec := &ingestRecord{due: next, scored: n >= r.sch.warmIng}
		r.mu.Lock()
		r.ingests = append(r.ingests, rec)
		r.mu.Unlock()
		target, err := r.harness.Ingest(r.cfg.ingestRows)
		rec.queue = time.Since(next)
		if err != nil {
			rec.failed = true
			continue
		}
		r.wg.Add(1)
		r.outstanding.Add(1)
		go func() {
			defer r.wg.Done()
			defer r.outstanding.Add(-1)
			limit := time.Now().Add(r.cfg.drain)
			for r.rem.Watermark() < target {
				if time.Now().After(limit) || r.rem.Err() != nil {
					rec.failed = true
					return
				}
				time.Sleep(ackPoll)
			}
			rec.ack = time.Since(rec.due)
		}()
	}
}

// ackPoll is how often an ingest waiter reads the client's watermark: fine
// against acks of about 10 ms, coarse enough that polling stays a small
// share of the window's CPU time.
const ackPoll = 250 * time.Microsecond

// traceName suffixes a viz name with the query's trace ID.
func traceName(viz string, qid int64) string { return fmt.Sprintf("%s#%d", viz, qid) }

// traceID recovers the trace ID from a suffixed viz name (0 when absent).
func traceID(viz string) int64 {
	var id int64
	mul := int64(1)
	for i := len(viz) - 1; i >= 0; i-- {
		c := viz[i]
		if c == '#' {
			return id
		}
		if c < '0' || c > '9' {
			return 0
		}
		id += int64(c-'0') * mul
		mul *= 10
	}
	return 0
}
