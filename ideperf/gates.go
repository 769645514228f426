package main

import (
	"fmt"
	"math"
	"time"

	"idebench/internal/dataset"
	"idebench/internal/engine"
	"idebench/internal/groundtruth"
	"idebench/internal/ingest"
	"idebench/internal/metrics"
	"idebench/internal/query"
	"idebench/internal/server"
)

// gateSchedule fails a run whose generator ran late or whose client hit its
// outstanding-operations cap: its numbers would not describe the schedule.
func gateSchedule(cfg *config, rp *replay) error {
	if rp.capHit.Load() {
		return fmt.Errorf("gate: client hit its cap of %d outstanding operations", cfg.maxOutstanding)
	}
	if p99 := metrics.Percentile(rp.lagsMs, 0.99); p99 > ms(cfg.lagBound) {
		return fmt.Errorf("gate: generator lag p99 %.3f ms exceeds %v", p99, cfg.lagBound)
	}
	return nil
}

// gateWatermarks checks no scored result claims data newer than the live
// data at the moment it was fetched.
func gateWatermarks(recs []*record) error {
	for _, r := range recs {
		if r.res != nil && r.res.Watermark > r.snapLive {
			return fmt.Errorf("gate: query %d result watermark %d exceeds live watermark %d",
				r.qid, r.res.Watermark, r.snapLive)
		}
	}
	return nil
}

// countQuery is the quiesce probe: a full-table COUNT by carrier, touching
// every row, so a lost or duplicated row changes it.
func countQuery(table string) *query.Query {
	return &query.Query{
		VizName: "quiesce_count", Table: table,
		Bins: []query.Binning{{Field: "carrier", Kind: dataset.Nominal}},
		Aggs: []query.Aggregate{{Func: query.Count}},
	}
}

// gateCount runs a COUNT through the served tier after quiesce and holds
// it bitwise to an exact scan at its watermark: the base data (the cold
// single-node answer) or, under ingest, the harness's final view.
func gateCount(rem *server.Remote, db *dataset.Database, h *ingest.Harness) error {
	want := int64(db.Fact.NumRows())
	if h != nil {
		want = h.Watermark()
		limit := time.Now().Add(30 * time.Second)
		for rem.Watermark() < want {
			if time.Now().After(limit) {
				return fmt.Errorf("gate: served watermark %d never reached %d", rem.Watermark(), want)
			}
			time.Sleep(time.Millisecond)
		}
	}
	q := countQuery(db.Fact.Name)
	var truth *query.Result
	var err error
	if h != nil {
		truth, err = h.TruthAt(q, want)
	} else {
		truth, err = groundtruth.New(db).Get(q)
	}
	if err != nil {
		return err
	}
	sess := engine.NewEngineSession(rem)
	sess.WorkflowStart()
	defer sess.WorkflowEnd()
	hd, err := sess.StartQuery(q)
	if err != nil {
		return fmt.Errorf("gate: count query: %w", err)
	}
	select {
	case <-hd.Done():
	case <-time.After(60 * time.Second):
		return fmt.Errorf("gate: count query did not complete")
	}
	res := hd.Snapshot()
	switch {
	case res == nil:
		return fmt.Errorf("gate: count query returned no result")
	case !res.Complete:
		return fmt.Errorf("gate: count query final is not complete (%d/%d rows)", res.RowsSeen, res.TotalRows)
	case res.Watermark != want:
		return fmt.Errorf("gate: count watermark %d, want %d", res.Watermark, want)
	}
	if err := bitwiseEqual(res, truth); err != nil {
		return fmt.Errorf("gate: served count differs from exact scan: %w", err)
	}
	return nil
}

func bitwiseEqual(got, want *query.Result) error {
	if len(got.Bins) != len(want.Bins) {
		return fmt.Errorf("%d bins, want %d", len(got.Bins), len(want.Bins))
	}
	for k, wv := range want.Bins {
		gv, ok := got.Bins[k]
		if !ok {
			return fmt.Errorf("bin %v missing", k)
		}
		if len(gv.Values) != len(wv.Values) {
			return fmt.Errorf("bin %v arity %d, want %d", k, len(gv.Values), len(wv.Values))
		}
		for i := range wv.Values {
			if math.Float64bits(gv.Values[i]) != math.Float64bits(wv.Values[i]) {
				return fmt.Errorf("bin %v value %d: %v, want %v", k, i, gv.Values[i], wv.Values[i])
			}
		}
	}
	return nil
}

// gateDrain waits for every engine's shared-scan consumers to drain to zero
// once the client has gone.
func gateDrain(obs map[string]engine.ScanObserver) error {
	limit := time.Now().Add(15 * time.Second)
	for name, o := range obs {
		for o.ActiveScanConsumers() > 0 {
			if time.Now().After(limit) {
				return fmt.Errorf("gate: %s still has %d shared-scan consumers after quiesce", name, o.ActiveScanConsumers())
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	return nil
}
