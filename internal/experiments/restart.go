package experiments

import (
	"fmt"
	"os"
	"strconv"
	"time"

	"idebench/internal/core"
	"idebench/internal/dataset"
	"idebench/internal/durable"
	"idebench/internal/engine"
	"idebench/internal/ingest"
	"idebench/internal/report"
)

// walSink adapts the WAL-logging Applier into an ingest.Sink, so a harness
// drives the same validate→log→apply path the live server uses.
type walSink struct{ ap *ingest.Applier }

func (s walSink) ApplyBatch(b *ingest.Batch, _ *dataset.Table) error {
	_, err := s.ap.Apply(b)
	return err
}

// restartBench measures one durable serve/crash/warm-boot cycle in-process
// on the progressive engine: bootstrap a data directory, ingest 10 batches
// of rows/100 rows (checkpointing halfway, so recovery exercises both the
// checkpoint and a live WAL tail), then time a recovery (checkpoint load +
// verification + PrepareReordered, then WAL replay) against the cold path
// it replaces (datagen + full prepare with the sampling reorder). The
// bitwise gate requires the recovered engine to answer like a cold exact
// scan of the same data version; warm_beats_cold requires the warm boot,
// replay included, to be faster than the cold prepare it skips.
func restartBench(cfg Config) ([]report.Point, error) {
	cfg = cfg.withDefaults()
	const batches = 10
	batchRows := cfg.Rows / 100
	dir, err := os.MkdirTemp("", "idebench-restart-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	// Serve side: cold-build the base, bootstrap the durable directory, and
	// ingest through the WAL exactly like `serve -data-dir`.
	db, err := core.BuildData(cfg.Rows, false, cfg.Seed)
	if err != nil {
		return nil, err
	}
	s := core.DefaultSettings()
	s.DataSize = cfg.Rows
	s.Seed = cfg.Seed
	p, err := core.Prepare("progressive", db, s)
	if err != nil {
		return nil, err
	}
	caps := engine.CapabilitiesOf(p.Engine)
	vs := caps.ViewSnapshotter
	if vs == nil {
		return nil, fmt.Errorf("experiments: progressive lost the ViewSnapshotter capability")
	}
	meta := durable.Meta{Engine: "progressive", Seed: cfg.Seed, BaseRows: int64(cfg.Rows)}
	st, err := durable.Open(dir, durable.Options{Meta: meta})
	if err != nil {
		return nil, err
	}
	ckStart := time.Now()
	vdb, perm := vs.SnapshotView()
	if err := st.Bootstrap(vdb, perm); err != nil {
		return nil, err
	}
	checkpointMS := msSince(ckStart)
	checkpointBytes := st.Status().LastCheckpointBytes

	app := caps.Appender
	if app == nil {
		return nil, fmt.Errorf("experiments: progressive lost the Appender capability")
	}
	ap := ingest.NewApplier(db, app)
	ap.SetLog(st.LogBatch)
	src, err := ingest.NewSource(cfg.Rows, cfg.Seed+17)
	if err != nil {
		return nil, err
	}
	h := ingest.NewHarness(db, src, walSink{ap})
	for i := 0; i < batches; i++ {
		if _, err := h.Ingest(batchRows); err != nil {
			return nil, err
		}
		if i == batches/2 {
			// Mid-run checkpoint: recovery below must stitch checkpoint +
			// WAL tail, not just one or the other.
			cdb, cperm := vs.SnapshotView()
			if err := st.Checkpoint(cdb, cperm); err != nil {
				return nil, err
			}
		}
	}
	if err := st.Close(); err != nil {
		return nil, err
	}

	// Cold side: what a boot without durable state costs to merely reach the
	// base version (the warm path additionally reaches base+ingested).
	coldStart := time.Now()
	coldDB, err := core.BuildData(cfg.Rows, false, cfg.Seed)
	if err != nil {
		return nil, err
	}
	if _, err := core.Prepare("progressive", coldDB, s); err != nil {
		return nil, err
	}
	coldMS := msSince(coldStart)

	// Warm side: recover the directory, adopt the checkpoint's own order,
	// redo the WAL tail.
	warmStart := time.Now()
	st2, err := durable.Open(dir, durable.Options{Meta: meta})
	if err != nil {
		return nil, err
	}
	rec, err := st2.Recover()
	if err != nil {
		return nil, err
	}
	if rec.Checkpoint == nil {
		return nil, fmt.Errorf("experiments: restart: no checkpoint recovered")
	}
	eng2, err := core.NewEngine("progressive")
	if err != nil {
		return nil, err
	}
	caps2 := engine.CapabilitiesOf(eng2)
	rp := caps2.ReorderedPreparer
	if rp == nil {
		return nil, fmt.Errorf("experiments: progressive lost the ReorderedPreparer capability")
	}
	eopts := engine.Options{Confidence: s.Confidence, Seed: s.Seed}
	if err := rp.PrepareReordered(rec.Checkpoint.DB, rec.Checkpoint.Perm, eopts); err != nil {
		return nil, err
	}
	warmLoadMS := msSince(warmStart)

	replayStart := time.Now()
	app2 := caps2.Appender
	if app2 == nil {
		return nil, fmt.Errorf("experiments: progressive lost the Appender capability")
	}
	ap2 := ingest.NewApplier(rec.Checkpoint.DB, app2)
	for _, b := range rec.Batches {
		if _, err := ap2.Apply(b); err != nil {
			return nil, fmt.Errorf("experiments: wal replay: %w", err)
		}
	}
	replayMS := msSince(replayStart)
	warmMS := warmLoadMS + replayMS
	if err := st2.Close(); err != nil {
		return nil, err
	}
	if got, want := app2.Watermark(), h.Watermark(); got != want {
		return nil, fmt.Errorf("experiments: restart: replayed watermark %d, want %d", got, want)
	}

	bitwise, err := quiesceBitwise(cfg.Out, eng2, app2, h)
	if err != nil {
		return nil, fmt.Errorf("experiments: restart bitwise check: %w", err)
	}
	return []report.Point{{
		Labels: map[string]string{"rows": strconv.Itoa(cfg.Rows), "batches": strconv.Itoa(batches)},
		Metrics: map[string]float64{
			"ingested_rows":    float64(h.IngestedRows()),
			"cold_prepare_ms":  coldMS,
			"checkpoint_ms":    checkpointMS,
			"checkpoint_bytes": float64(checkpointBytes),
			"warm_load_ms":     warmLoadMS,
			"wal_replay_ms":    replayMS,
			"warm_total_ms":    warmMS,
			"bitwise":          report.BoolMetric(bitwise),
			"warm_beats_cold":  report.BoolMetric(warmMS < coldMS),
		},
		Gates: map[string]bool{"bitwise": bitwise, "warm_beats_cold": warmMS < coldMS},
	}}, nil
}
