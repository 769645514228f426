package shard

import (
	"fmt"
	"math"
	"sync"

	"idebench/internal/engine"
	"idebench/internal/query"
)

// partQuery tracks one partition's contribution to one merged query.
type partQuery struct {
	cur   engine.Handle // live handle; nil once the partition finished or died
	rep   *replica      // replica serving cur
	tried map[*replica]bool
	// last buffers the freshest fragment seen from any replica of this
	// partition — a mid-stream death keeps its last streamed partial as the
	// partition's answer until a failover replica overtakes it.
	last *engine.Partial
	// dead marks a partition that will contribute nothing further: its
	// fragment is final (last.Complete) or every replica was tried.
	dead bool
}

// coordHandle merges one query's per-partition handles, failing over to
// the next live replica when one dies mid-stream. Snapshot buffers one
// Partial per partition (arrival order irrelevant), folds the available
// fragments in partition-ID order and renders once.
//
// Coverage contract: while every partition is still live, Snapshot returns
// nil until EVERY partition has produced a fragment — the classic
// progressive gate. Once a partition is known dead (all replicas tried),
// it is excluded and the merge proceeds over the survivors, annotated with
// a query.Coverage block and marked incomplete; a degraded result is never
// presented as a full-population answer. If the surviving population
// fraction is below the coordinator's MinCoverage floor the snapshot is
// refused (nil) instead.
type coordHandle struct {
	co    *Coordinator
	q     *query.Query
	aggs  []query.Aggregate
	start func(*replica) (engine.Handle, error)
	done  chan struct{}

	mu        sync.Mutex
	parts     []partQuery
	cancelled bool
	memo      mergeInputs   // inputs of the last merge; see Snapshot
	memoRes   *query.Result // the last merge
}

// newCoordHandle starts q on one replica per partition (preferring healthy,
// in-sync ones) and watches each for mid-stream death. It fails with an
// error only when not a single partition can start — anything partial
// proceeds and surfaces as coverage.
func newCoordHandle(co *Coordinator, q *query.Query, start func(*replica) (engine.Handle, error)) (*coordHandle, error) {
	h := &coordHandle{
		co: co, q: q, aggs: q.Aggs, start: start,
		done:  make(chan struct{}),
		parts: make([]partQuery, co.Shards()),
	}
	started := 0
	for i := range h.parts {
		h.parts[i].tried = make(map[*replica]bool)
		h.startNext(i)
		if h.parts[i].cur != nil {
			started++
		}
	}
	if started == 0 {
		return nil, fmt.Errorf("shard: no partition has a startable replica")
	}
	var wg sync.WaitGroup
	for i := range h.parts {
		if h.parts[i].cur == nil {
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			h.runPart(i)
		}(i)
	}
	go func() {
		wg.Wait()
		close(h.done)
	}()
	return h, nil
}

// startNext starts the query on the best untried replica of partition i:
// healthy and in-sync first, then healthy but stale, then — as a last
// resort, since health info can itself be stale — anything untried. A
// start error marks the replica unhealthy and moves on; exhausting the set
// marks the partition dead.
//
// Quarantined replicas are excluded from every pass, including the last
// resort: their content is known wrong, and an honestly uncovered
// partition (degraded coverage) beats a silently wrong answer.
func (h *coordHandle) startNext(i int) {
	h.mu.Lock()
	pq := &h.parts[i]
	if h.cancelled {
		pq.cur, pq.dead = nil, true
		h.mu.Unlock()
		return
	}
	tried := pq.tried
	h.mu.Unlock()

	set := h.co.replicaSet(i)
	var order []*replica
	queued := make(map[*replica]bool)
	for pass := 0; pass < 3; pass++ {
		for _, r := range set {
			if tried[r] || queued[r] || r.isQuarantined() {
				continue
			}
			healthy, synced := r.state()
			switch {
			case pass == 0 && healthy && synced,
				pass == 1 && healthy && !synced,
				pass == 2:
				order = append(order, r)
				queued[r] = true
			}
		}
	}
	for _, r := range order {
		tried[r] = true
		sh, err := h.start(r)
		if err != nil {
			r.setHealthy(false)
			continue
		}
		h.mu.Lock()
		if h.cancelled {
			h.mu.Unlock()
			sh.Cancel()
			return
		}
		pq.cur, pq.rep = sh, r
		h.mu.Unlock()
		return
	}
	h.mu.Lock()
	pq.cur, pq.rep, pq.dead = nil, nil, true
	h.mu.Unlock()
}

// runPart watches partition i's live handle: a handle that finishes with a
// complete fragment ends the partition normally; one that finishes without
// (connection died, backend shed the query) marks its replica unhealthy
// and fails the query over to the next replica, keeping the freshest
// buffered fragment meanwhile.
func (h *coordHandle) runPart(i int) {
	for {
		h.mu.Lock()
		pq := &h.parts[i]
		cur, rep := pq.cur, pq.rep
		h.mu.Unlock()
		if cur == nil {
			return
		}
		<-cur.Done()

		h.mu.Lock()
		p := partialOf(cur)
		if p != nil && betterFragment(p, pq.last) {
			pq.last = p
		}
		if h.cancelled {
			pq.cur, pq.rep = nil, nil
			h.mu.Unlock()
			return
		}
		if p != nil && p.Complete {
			pq.cur, pq.rep, pq.dead = nil, nil, true
			h.mu.Unlock()
			return
		}
		pq.cur, pq.rep = nil, nil
		h.mu.Unlock()

		// The handle ended without a complete fragment: either the replica
		// died under the query, or a live backend ended it deliberately (the
		// viz was deleted, the query was shed). Only a probe-confirmed dead
		// replica triggers failover — restarting a deliberately ended query
		// on a sibling would resurrect cancelled work, and marking the
		// replica unhealthy for it would poison the ingest path off a false
		// signal.
		if rep != nil && rep.unreachable() {
			rep.setHealthy(false)
			h.startNext(i)
			continue
		}
		h.mu.Lock()
		pq.dead = true
		h.mu.Unlock()
		return
	}
}

// betterFragment prefers the fresher of two fragments from the same
// partition: higher watermark first, then more rows folded.
func betterFragment(p, old *engine.Partial) bool {
	if old == nil {
		return true
	}
	if p.Watermark != old.Watermark {
		return p.Watermark > old.Watermark
	}
	return p.RowsSeen >= old.RowsSeen
}

// partialOf reads a handle's raw fragment; nil when the handle lacks the
// capability or has nothing yet.
func partialOf(sh engine.Handle) *engine.Partial {
	ps, ok := sh.(engine.PartialSnapshotter)
	if !ok {
		return nil
	}
	return ps.PartialSnapshot()
}

// Snapshot implements engine.Handle. See the type comment for the
// coverage contract.
//
// The coordinator-wide co.mu is held only to read z and the global version
// and to translate the fragment watermarks; the fold and render run after
// it is released, so StartQuery fan-out, ingest routing and topology reads
// never queue behind a large merge. Polls whose inputs (fragment pointers,
// translated watermarks, global version, z) equal the previous merge's get
// that merge's Result back without re-folding.
func (h *coordHandle) Snapshot() *query.Result {
	h.mu.Lock()
	frags := make([]*engine.Partial, 0, len(h.parts))
	answered := 0
	for i := range h.parts {
		pq := &h.parts[i]
		if pq.cur != nil {
			if p := partialOf(pq.cur); p != nil && betterFragment(p, pq.last) {
				pq.last = p
			}
		}
		switch {
		case pq.last != nil:
			frags = append(frags, pq.last)
			answered++
		case pq.dead:
			frags = append(frags, nil) // uncovered partition
		default:
			// Live but nothing yet: no merged answer until it reports or dies.
			h.mu.Unlock()
			return nil
		}
	}
	h.mu.Unlock()
	if answered == 0 {
		return nil
	}

	in := mergeInputs{frags: frags, wms: make([]int64, len(frags))}
	h.co.mu.Lock()
	in.z, in.global = h.co.z, h.co.global
	for i, p := range frags {
		if p != nil {
			in.wms[i] = h.co.translate(i, p.Watermark)
		}
	}
	h.co.mu.Unlock()

	h.mu.Lock()
	if h.memo.equal(&in) {
		res := h.memoRes
		h.mu.Unlock()
		return res
	}
	h.mu.Unlock()
	res := h.merge(&in, answered)
	h.mu.Lock()
	h.memo, h.memoRes = in, res
	h.mu.Unlock()
	return res
}

// mergeInputs is everything one merged snapshot is a function of, besides
// the handle's fixed aggregates and the coordinator's fixed MinCoverage.
type mergeInputs struct {
	frags  []*engine.Partial // per partition; nil = uncovered
	wms    []int64           // per partition: fragment watermark on the global axis
	global int64
	z      float64
}

// equal compares fragments by pointer: a backend hands out a new Partial
// whenever its state changes. Watermarks are compared too, since a
// zero-row sub-batch advances a translated watermark under an unchanged
// fragment. The zero value (no merge yet) equals no real input, which
// always has at least one partition.
func (a *mergeInputs) equal(b *mergeInputs) bool {
	if a.global != b.global || a.z != b.z || len(a.frags) != len(b.frags) {
		return false
	}
	for i := range a.frags {
		if a.frags[i] != b.frags[i] || a.wms[i] != b.wms[i] {
			return false
		}
	}
	return true
}

// merge folds in's fragments in partition-ID order and renders once,
// applying the min-watermark rule and the coverage floor.
func (h *coordHandle) merge(in *mergeInputs, answered int) *query.Result {
	fold := engine.NewPartialFold(h.aggs)
	minWM := int64(math.MaxInt64)
	var popAnswered int64
	for i, p := range in.frags {
		if p == nil {
			continue
		}
		fold.Add(p)
		popAnswered += p.Population
		if in.wms[i] < minWM {
			minWM = in.wms[i]
		}
	}

	total := len(in.frags)
	cov := &query.Coverage{
		PartitionsAnswered: answered,
		PartitionsTotal:    total,
		Degraded:           answered < total,
	}
	if in.global > 0 {
		cov.PopulationFraction = float64(popAnswered) / float64(in.global)
		if cov.PopulationFraction > 1 {
			cov.PopulationFraction = 1
		}
	} else if answered == total {
		cov.PopulationFraction = 1
	}
	if cov.Degraded && cov.PopulationFraction < h.co.opts.MinCoverage {
		// Below the floor: refuse rather than serve.
		return nil
	}
	res := fold.Render(in.z)
	if res == nil {
		return nil
	}
	res.Watermark = minWM
	res.Coverage = cov
	if cov.Degraded {
		// A degraded merge is never a complete answer to the full-population
		// query, no matter how complete its fragments are.
		res.Complete = false
	}
	return res
}

// Done implements engine.Handle: closed when every partition either
// delivered its final fragment or died with no replica left.
func (h *coordHandle) Done() <-chan struct{} { return h.done }

// Cancel implements engine.Handle: stops failover and cancels every live
// per-partition handle.
func (h *coordHandle) Cancel() {
	h.mu.Lock()
	h.cancelled = true
	var live []engine.Handle
	for i := range h.parts {
		if h.parts[i].cur != nil {
			live = append(live, h.parts[i].cur)
		}
	}
	h.mu.Unlock()
	for _, sh := range live {
		sh.Cancel()
	}
}
