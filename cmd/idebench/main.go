// Command idebench is the benchmark driver CLI (paper Sec. 4.4): it
// generates datasets and workloads, runs the benchmark against the built-in
// engines, and regenerates every table and figure of the paper's evaluation
// section.
//
// Usage:
//
//	idebench datagen     -rows 500000 -out flights.csv
//	idebench workloadgen -rows 100000 -count 10 -interactions 18 -out flows.json
//	idebench run         -engine progressive -rows 500000 -tr 12ms -think 4ms
//	idebench run         -engine progressive -users 8
//	idebench run         -engine progressive -users 4 -ingest-every 3 -ingest-rows 2000
//	idebench serve       -engine progressive -rows 500000 -addr :8373
//	idebench serve       -engine progressive -rows 500000 -data-dir ./state
//	idebench inspect     -data-dir ./state
//	idebench shard       -rows 500000 -shard-index 0 -shard-count 3 -addr :9001
//	idebench shard       -rows 500000 -replica-of 0 -shard-count 3 -addr :9101
//	idebench coord       -rows 500000 -shards localhost:9001,localhost:9002,localhost:9003 -addr :8373
//	idebench coord       -rows 500000 -shards localhost:9001/localhost:9101,localhost:9002/localhost:9102 -min-coverage 0.5 -addr :8373
//	idebench coord       -rows 500000 -shards ... -data-dir ./coord-state -peers localhost:8374 -addr :8373
//	idebench coord       -rows 500000 -standby-of localhost:8373 -data-dir ./coord-state -addr :8374
//	idebench rebalance   -addr localhost:8373 -op add -partition 0 -shard-addr localhost:9102
//	idebench probe       -addr localhost:8373 -rows 500000 -expect full
//	idebench run         -addr localhost:8373 -rows 500000 -users 8
//	idebench run         -addr localhost:8373 -rows 500000 -users 4 -ingest-every 3
//	idebench load        -addr localhost:8373 -rows 500000 -schedule ramp -rate 50 -rate2 2000
//	idebench exp         -name fig5 [-rows 500000] [-quick]
//	idebench exp         -name users|ingest|shards|elastic|overload|restart
//
// `exp -name <sweep>` runs one sweep of the experiments.Sweeps registry,
// prints its table and fails when a point fails one of the sweep's gates
// (the same gates cmd/benchrun enforces).
//
// `run -users N` replays the workload as N concurrent simulated users, each
// on its own engine session, and appends the user-scalability table
// (throughput, p50/p95/p99 latency) to the summary. `exp -name users` sweeps
// 1/2/4/8 users on the shared-scan progressive engine vs the independent
// exactdb engine.
//
// `-ingest-every N` turns a replay ingest-aware: an append-only batch of
// `-ingest-rows` rows (drawn from the deterministic copula source) lands
// after every N workflow interactions; engines absorb the batches live,
// results are evaluated against the ground truth of the data version their
// watermark names, and the summary gains the staleness table. With -addr
// the batches additionally ship to the server as ingest frames, which the
// server applies and acknowledges to every live session. `exp -name ingest`
// sweeps 1/2/4/8 users with live appends and checks the quiesced results
// bitwise against a cold scan of the final table.
//
// `load` is the open-loop counterpart to `run -addr`: instead of replaying
// workflows with think-time coupling, it offers queries at an absolute-time
// arrival schedule (poisson, bursty, or ramp) that never slows down when the
// server does — the honest way to measure overload. It prints the admission
// and shedding counters with the admitted latency tails, and its -gate-*
// flags turn the run into a CI assertion (bounded done-p99, zero hard
// errors, knee crossed). `exp -name overload` runs the in-process sweep
// across a whole rate ladder. The serve side exposes the matching knobs
// (-max-inflight, -max-inflight-per-conn, -retry-hint, -late-factor,
// -ping-interval, -idle-timeout).
//
// `serve` exposes a prepared engine over the idebench wire protocol
// (internal/server): HTTP on -addr with /ws (WebSocket, one engine session
// per connection, streamed progressive snapshots) and /healthz. `run -addr`
// replays the same workloads through the network client instead of
// in-process — the driver is identical, so the two runs compare
// apples-to-apples. The run and serve sides must agree on -rows and -seed
// so the locally computed ground truth matches the served data.
//
// `shard` and `coord` assemble the scatter-gather serving tier
// (internal/shard): N `shard` processes each serve one hash partition of the
// fact table (the same deterministic partitioning every process computes
// from -rows/-seed/-shard-count), and one `coord` process fronts them,
// fanning every query out, merging the shards' raw accumulator fragments in
// fixed shard-ID order (bitwise-deterministic float folds) and applying the
// min-watermark alignment rule to every merged snapshot. Ingest frames sent
// to the coordinator are hash-routed to the owning shards. Clients speak to
// the coordinator exactly as to a single `serve` — same protocol, same
// `run -addr` replay.
//
// The tier is elastic: each partition in `-shards` may list several
// '/'-separated replica addresses (`shard -replica-of N` starts one), the
// coordinator health-checks them and fails queries over mid-stream when a
// replica dies, and when a whole partition is unreachable it serves the
// survivors' merged answer annotated with a coverage block (partitions
// answered, population fraction) instead of an outage — down to the
// `-min-coverage` floor, below which it refuses. `-anti-entropy` runs a
// background bitwise divergence check between replicas. `rebalance` posts
// replica add/remove to a live coordinator; `probe` asserts the tier's
// coverage outcome from the outside (CI walls are built from it).
//
// The coordinator itself is redundant: `coord -data-dir` journals the
// authoritative control-plane state — partition map, replica membership
// with sync and quarantine flags, and the global→shard version-log
// translation, each step fsynced BEFORE the ingest ack — and
// `coord -standby-of ADDR -data-dir SAME` runs a warm standby that tails
// that journal, probes the primary, and on probe-confirmed death takes
// over serving at exactly the acknowledged watermark (it binds its -addr
// only at takeover). `-peers` lists the standby addresses the primary
// states in its hello frames, so clients that dialed only the primary
// learn the failover rotation before they need it; the client walks the
// rotation on redial (comma-separated `-addr` lists on `run`, `probe` and
// `load` seed it explicitly). A replica whose content diverges bitwise
// from its siblings is quarantined — excluded from fan-out and ingest,
// visible on /healthz, durable across coordinator restart — until
// readmitted through the rebalance path.
//
// `serve -data-dir` makes the served state durable (internal/durable): the
// prepared base is checkpointed once at boot, every ingest batch is written
// and fsynced to a write-ahead log before the engine applies it, and a
// background checkpointer bounds the log's length. After a crash — even a
// kill -9 mid-ingest — restarting with the same -data-dir recovers the
// newest verifying checkpoint, replays the WAL tail, and resumes serving at
// the exact batch-aligned watermark that was last acknowledged, warm
// (skipping datagen and the sampling reorder). `inspect` verifies a data
// directory offline: per-file checksums, the manifest's content digest, and
// the WAL's record chain.
//
// Run `idebench <command> -h` for each command's flags.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"idebench/internal/core"
	"idebench/internal/datagen"
	"idebench/internal/dataset"
	"idebench/internal/driver"
	"idebench/internal/durable"
	"idebench/internal/engine"
	"idebench/internal/experiments"
	"idebench/internal/groundtruth"
	"idebench/internal/ingest"
	"idebench/internal/loadgen"
	"idebench/internal/query"
	"idebench/internal/report"
	"idebench/internal/server"
	"idebench/internal/shard"
	"idebench/internal/workflow"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "datagen":
		err = cmdDatagen(os.Args[2:])
	case "workloadgen":
		err = cmdWorkloadgen(os.Args[2:])
	case "run":
		err = cmdRun(os.Args[2:])
	case "serve":
		err = cmdServe(os.Args[2:])
	case "shard":
		err = cmdShard(os.Args[2:])
	case "coord":
		err = cmdCoord(os.Args[2:])
	case "rebalance":
		err = cmdRebalance(os.Args[2:])
	case "probe":
		err = cmdProbe(os.Args[2:])
	case "load":
		err = cmdLoad(os.Args[2:])
	case "inspect":
		err = cmdInspect(os.Args[2:])
	case "exp":
		err = cmdExp(os.Args[2:])
	case "view":
		err = cmdView(os.Args[2:])
	case "analyze":
		err = cmdAnalyze(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "idebench: unknown command %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "idebench:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `idebench — a benchmark for interactive data exploration (Go reproduction)

Commands:
  datagen      generate the scaled flights dataset as CSV
  workloadgen  generate benchmark workflows as JSON
  run          run the benchmark for one engine and setting (in-process, or -addr for a remote server)
  serve        serve an engine over the HTTP/WebSocket wire protocol
  shard        serve one hash partition of the dataset (one member of a scatter-gather tier)
  coord        serve a scatter-gather coordinator over shard replica sets (failover, degraded coverage)
  rebalance    post a replica add/remove to a running coordinator's admin endpoint
  probe        run one COUNT against a server and assert its coverage outcome (CI primitive)
  load         drive a server with open-loop load (poisson/bursty/ramp arrivals, CI gates)
  inspect      verify and summarize a durable data directory (checkpoints + WAL)
  exp          regenerate a paper experiment (fig5, fig6a..fig6f, exp4, exp5, prep, table1, all) or run a sweep (users, ingest, shards, elastic, overload, restart)
  view         inspect generated workflows (text or Graphviz DOT)
  analyze      re-aggregate a saved detailed report (summary + factor analysis)
`)
}

func cmdDatagen(args []string) error {
	fs := flag.NewFlagSet("datagen", flag.ExitOnError)
	rows := fs.Int("rows", core.SizeM, "number of tuples to generate")
	seedRows := fs.Int("seed-rows", 20000, "seed table size the copula scaler is fitted on")
	seed := fs.Int64("seed", 1, "random seed")
	out := fs.String("out", "flights.csv", "output CSV path")
	showStats := fs.Bool("stats", false, "print per-column statistics of the generated data")
	if err := fs.Parse(args); err != nil {
		return err
	}
	start := time.Now()
	seedTbl, err := datagen.GenerateSeed(*seedRows, *seed)
	if err != nil {
		return err
	}
	tbl, err := datagen.ScaleTable(seedTbl, *rows, *seed+1)
	if err != nil {
		return err
	}
	if err := dataset.WriteCSVFile(*out, tbl); err != nil {
		return err
	}
	fmt.Printf("wrote %d rows to %s in %v\n", tbl.NumRows(), *out, time.Since(start).Round(time.Millisecond))
	if *showStats {
		if err := dataset.RenderStats(os.Stdout, dataset.Stats(tbl)); err != nil {
			return err
		}
	}
	return nil
}

func cmdWorkloadgen(args []string) error {
	fs := flag.NewFlagSet("workloadgen", flag.ExitOnError)
	rows := fs.Int("rows", 50000, "rows of generated data to derive value domains from")
	data := fs.String("data", "", "optional CSV dataset to derive domains from (flights schema)")
	count := fs.Int("count", 10, "workflows per type")
	interactions := fs.Int("interactions", 18, "interactions per workflow")
	seed := fs.Int64("seed", 1, "random seed")
	out := fs.String("out", "workflows.json", "output JSON path")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var tbl *dataset.Table
	var err error
	if *data != "" {
		tbl, err = dataset.ReadCSVFile(*data, "flights", datagen.FlightsSchema())
	} else {
		db, berr := core.BuildData(*rows, false, *seed)
		if berr != nil {
			return berr
		}
		tbl = db.Fact
	}
	if err != nil {
		return err
	}
	gen, err := workflow.NewGenerator(tbl)
	if err != nil {
		return err
	}
	flows, err := gen.GenerateSet(*count, *interactions, *seed+100)
	if err != nil {
		return err
	}
	if err := workflow.SaveFile(*out, flows); err != nil {
		return err
	}
	fmt.Printf("wrote %d workflows to %s\n", len(flows), *out)
	return nil
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	engineName := fs.String("engine", "progressive", "engine: "+strings.Join(core.EngineNames, ", ")+", progressive-spec, systemy")
	rows := fs.Int("rows", core.SizeM, "dataset size (tuples)")
	tr := fs.Duration("tr", 12*time.Millisecond, "time requirement")
	think := fs.Duration("think", core.DefaultThinkTime, "think time between interactions")
	useJoins := fs.Bool("joins", false, "use the normalized star schema")
	count := fs.Int("count", 10, "workflows per type (generated workload)")
	interactions := fs.Int("interactions", 18, "interactions per workflow")
	flowsPath := fs.String("workflows", "", "optional workflow JSON (default: generated mixed workload)")
	detailed := fs.String("detailed", "", "optional path for the detailed per-query CSV report")
	users := fs.Int("users", 1, "concurrent simulated users (each on its own engine session)")
	seed := fs.Int64("seed", 1, "random seed")
	addr := fs.String("addr", "", "replay against a remote `idebench serve` at host:port instead of in-process (-rows/-seed must match the server); a comma-separated list enables failover through the rotation (primary first, then warm standbys)")
	maxViol := fs.Float64("maxviol", -1, "fail if the TR-violation percentage exceeds this (negative disables); CI smoke guard")
	expectStream := fs.Bool("expect-stream", false, "with -addr: fail unless at least one intermediate and one final snapshot frame arrived")
	ingestEvery := fs.Int("ingest-every", 0, "interleave an ingest event after every N workflow interactions (0 disables live ingestion)")
	ingestRows := fs.Int("ingest-rows", 1000, "rows per interleaved ingest batch (with -ingest-every)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *expectStream && *addr == "" {
		return errors.New("-expect-stream requires -addr (in-process runs have no frames)")
	}
	if *ingestEvery > 0 && *useJoins {
		return errors.New("-ingest-every with -joins is not supported (the generated ingest stream is de-normalized)")
	}

	db, err := core.BuildData(*rows, *useJoins, *seed)
	if err != nil {
		return err
	}
	var flows []*workflow.Workflow
	if *flowsPath != "" {
		flows, err = workflow.LoadFile(*flowsPath)
		if err != nil {
			return err
		}
	} else {
		flatDB := db
		if *useJoins {
			flatDB, err = core.BuildData(*rows, false, *seed)
			if err != nil {
				return err
			}
		}
		all, gerr := core.GenerateWorkflows(flatDB, *count, *interactions, *seed+100)
		if gerr != nil {
			return gerr
		}
		flows = core.MixedOnly(all)
	}

	s := core.DefaultSettings()
	s.TimeRequirement = *tr
	s.ThinkTime = *think
	s.DataSize = *rows
	s.UseJoins = *useJoins
	s.Seed = *seed

	if *users > len(flows) {
		fmt.Fprintf(os.Stderr, "idebench: note: %d users requested but only %d workflows; running %d concurrent users (add -count or -workflows for more)\n",
			*users, len(flows), len(flows))
	}
	if *ingestEvery > 0 {
		flows = workflow.InterleaveIngestAll(flows, *ingestEvery, *ingestRows)
	}
	var recs []driver.Record
	var remoteStats *server.FrameStats
	var harness *ingest.Harness
	if *addr != "" {
		recs, remoteStats, harness, err = runRemote(*addr, db, flows, s, *users, *ingestEvery > 0)
	} else {
		var p *core.Prepared
		p, err = core.Prepare(*engineName, db, s)
		if err != nil {
			return err
		}
		fmt.Printf("data preparation time: %v\n", p.PrepTime.Round(time.Microsecond))
		switch {
		case *ingestEvery > 0:
			app := engine.CapabilitiesOf(p.Engine).Appender
			if app == nil {
				return fmt.Errorf("engine %s does not support live ingestion", p.Engine.Name())
			}
			harness, err = newIngestHarness(db, s.Seed, ingest.EngineSink{A: app})
			if err != nil {
				return err
			}
			recs, err = p.RunIngest(flows, s, *users, harness)
		case *users > 1:
			recs, err = p.RunUsers(flows, s, *users)
		default:
			recs, err = p.Run(flows, s)
		}
	}
	if err != nil {
		return err
	}
	rows2 := report.Summarize(recs, report.GroupBy{Driver: true, TimeReq: true, WorkflowType: true})
	if err := report.RenderSummaries(os.Stdout, rows2); err != nil {
		return err
	}
	if *users > 1 {
		fmt.Println()
		if err := report.RenderPoints(os.Stdout, report.SummarizeUsers(recs)); err != nil {
			return err
		}
	}
	if harness != nil {
		fmt.Println()
		wallByGroup := map[string]float64{}
		for _, u := range report.SummarizeUsers(recs) {
			wallByGroup[report.LabelString(u.Labels)] = u.Metrics["wall_clock_ms"]
		}
		pts := report.SummarizeIngest(recs)
		for _, pt := range pts {
			pt.Metrics["ingested_rows"] = float64(harness.IngestedRows())
			pt.Metrics["ingest_rows_per_sec"] = 0
			if wall := wallByGroup[report.LabelString(pt.Labels)]; wall > 0 {
				pt.Metrics["ingest_rows_per_sec"] = float64(harness.IngestedRows()) / (wall / 1000)
			}
		}
		if err := report.RenderPoints(os.Stdout, pts); err != nil {
			return err
		}
		fmt.Printf("ingested %d rows in %d batches (live watermark %d)\n",
			harness.IngestedRows(), harness.Batches(), harness.Watermark())
	}
	if *detailed != "" {
		if err := writeDetailed(*detailed, recs); err != nil {
			return err
		}
		fmt.Printf("detailed report: %s (%d queries)\n", *detailed, len(recs))
	}
	if *expectStream {
		if err := checkStream(remoteStats); err != nil {
			return err
		}
	}
	if *maxViol >= 0 {
		if err := checkViolations(recs, *maxViol); err != nil {
			return err
		}
	}
	return nil
}

// runRemote replays flows against a remote `idebench serve` through the
// WebSocket client, returning the records and the client's frame counters.
// The driver code path is identical to the in-process one; only the
// engine.Engine implementation behind it differs. With ingestion enabled,
// the client owns the ground-truth lineage (a local harness applies every
// batch) while the same batches ship to the server as ingest frames.
func runRemote(addr string, db *dataset.Database, flows []*workflow.Workflow, s core.Settings, users int, withIngest bool) ([]driver.Record, *server.FrameStats, *ingest.Harness, error) {
	// addr may be a comma-separated failover list (primary first, then warm
	// standbys); with more than one address the client reconnects through
	// the rotation when the primary dies. A single address keeps the
	// fail-loudly default — a benchmark replay should not paper over a
	// flaky single-server setup.
	addrs := splitAddrs(addr)
	if len(addrs) == 0 {
		return nil, nil, nil, errors.New("run: -addr is empty")
	}
	rem, err := server.NewRemoteWithOptions(addrs[0], server.RemoteOptions{
		Addrs: addrs[1:], Reconnect: len(addrs) > 1,
	})
	if err != nil {
		return nil, nil, nil, err
	}
	defer rem.Close()
	// Surfaces a -rows/-seed mismatch before an expensive replay runs
	// against the wrong ground truth.
	if err := rem.Prepare(db, engine.Options{Confidence: s.Confidence, Seed: s.Seed}); err != nil {
		return nil, nil, nil, err
	}
	fmt.Printf("remote engine: %s at %s (%d rows)\n", rem.Name(), addr, rem.Rows())

	gt := groundtruth.New(db)
	cfg := driver.Config{
		TimeRequirement: s.TimeRequirement,
		ThinkTime:       s.ThinkTime,
		DataSizeLabel:   core.SizeLabel(s.DataSize),
	}
	var h *ingest.Harness
	if withIngest {
		h, err = newIngestHarness(db, s.Seed, rem)
		if err != nil {
			return nil, nil, nil, err
		}
		cfg.IngestSink = h
	}
	var recs []driver.Record
	if users > 1 {
		m := driver.NewMulti(rem, gt, driver.MultiConfig{
			Config: cfg, Users: users, ThinkJitter: driver.DefaultThinkJitter, Seed: s.Seed,
		})
		res, merr := m.Run(flows)
		if merr != nil {
			return nil, nil, nil, merr
		}
		recs = res.Records
	} else {
		r := driver.New(rem, gt, cfg)
		var rerr error
		recs, rerr = r.RunWorkflows(flows)
		if rerr != nil {
			return nil, nil, nil, rerr
		}
	}
	if h != nil {
		// Quiesce: ingest frames are asynchronous; wait (bounded) until the
		// server confirms it absorbed everything we fed it. A server-side
		// rejection surfaces with its own message rather than as a timeout.
		deadline := time.Now().Add(15 * time.Second)
		for rem.Watermark() < h.Watermark() && time.Now().Before(deadline) {
			if err := rem.Err(); err != nil {
				return nil, nil, nil, fmt.Errorf("server rejected ingestion: %w", err)
			}
			time.Sleep(10 * time.Millisecond)
		}
		if err := rem.Err(); err != nil {
			return nil, nil, nil, fmt.Errorf("server rejected ingestion: %w", err)
		}
		if rem.Watermark() != h.Watermark() {
			return nil, nil, nil, fmt.Errorf("server watermark %d never caught up to fed %d",
				rem.Watermark(), h.Watermark())
		}
	}
	st := rem.Stats()
	fmt.Printf("network frames: %d intermediate, %d final, %d ingest, %d errors over %d sessions\n",
		st.Intermediate.Load(), st.Final.Load(), st.Ingest.Load(), st.Errors.Load(), st.Sessions.Load())
	return recs, st, h, nil
}

// newIngestHarness builds the deterministic batch stream + harness shared
// by the in-process and remote ingest paths.
func newIngestHarness(db *dataset.Database, seed int64, sinks ...ingest.Sink) (*ingest.Harness, error) {
	src, err := ingest.NewSource(2000, seed+23)
	if err != nil {
		return nil, err
	}
	return ingest.NewHarness(db, src, sinks...), nil
}

// checkStream enforces the e2e smoke contract: a streamed replay must have
// delivered at least one intermediate and one final snapshot frame.
func checkStream(st *server.FrameStats) error {
	if st == nil {
		return errors.New("no remote replay ran")
	}
	if st.Intermediate.Load() == 0 || st.Final.Load() == 0 {
		return fmt.Errorf("stream check failed: %d intermediate / %d final frames (want ≥1 of each)",
			st.Intermediate.Load(), st.Final.Load())
	}
	return nil
}

// checkViolations enforces a TR-violation ceiling (percent) over the run.
func checkViolations(recs []driver.Record, maxPct float64) error {
	violated := 0
	for _, r := range recs {
		if r.Metrics.TRViolated {
			violated++
		}
	}
	pct := 0.0
	if len(recs) > 0 {
		pct = 100 * float64(violated) / float64(len(recs))
	}
	fmt.Printf("tr violations: %d/%d (%.2f%%), ceiling %.2f%%\n", violated, len(recs), pct, maxPct)
	if pct > maxPct {
		return fmt.Errorf("violation rate %.2f%% exceeds -maxviol %.2f%%", pct, maxPct)
	}
	return nil
}

func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	engineName := fs.String("engine", "progressive", "engine: "+strings.Join(core.EngineNames, ", ")+", progressive-spec, systemy")
	rows := fs.Int("rows", core.SizeM, "dataset size (tuples)")
	useJoins := fs.Bool("joins", false, "use the normalized star schema")
	seed := fs.Int64("seed", 1, "random seed (clients must build ground truth with the same seed)")
	addr := fs.String("addr", ":8373", "listen address")
	maxConns := fs.Int("max-conns", server.DefaultMaxConns, "maximum concurrent connections (= engine sessions)")
	poll := fs.Duration("poll", server.DefaultPollInterval, "snapshot streaming poll interval")
	drain := fs.Duration("drain", 15*time.Second, "graceful-drain budget on SIGTERM/SIGINT")
	maxInflight := fs.Int("max-inflight", server.DefaultMaxInflight, "admission cap on concurrently executing queries server-wide")
	maxInflightConn := fs.Int("max-inflight-per-conn", server.DefaultMaxInflightPerConn, "admission cap on one connection's concurrent queries")
	retryHint := fs.Duration("retry-hint", server.DefaultRetryHint, "suggested backoff sent with retryable rejections")
	lateFactor := fs.Float64("late-factor", server.DefaultLateFactor, "shed queries still running past this multiple of their stated deadline (negative disables)")
	pingInterval := fs.Duration("ping-interval", server.DefaultPingInterval, "server ping cadence for liveness (negative disables)")
	idleTimeout := fs.Duration("idle-timeout", server.DefaultIdleTimeout, "disconnect connections with no inbound frame for this long (negative disables)")
	dataDir := fs.String("data-dir", "", "durable state directory (checkpoints + ingest WAL); a restart recovers the last served state and resumes")
	ckptWALBytes := fs.Int64("checkpoint-wal-bytes", 8<<20, "with -data-dir: write a background checkpoint once the WAL exceeds this many bytes")
	ckptInterval := fs.Duration("checkpoint-interval", 2*time.Second, "with -data-dir: background checkpointer poll cadence")
	if err := fs.Parse(args); err != nil {
		return err
	}

	s := core.DefaultSettings()
	s.DataSize = *rows
	s.UseJoins = *useJoins
	s.Seed = *seed

	var (
		db   *dataset.Database
		eng  engine.Engine
		caps engine.Capabilities // eng's optional capabilities, resolved once
		st   *durable.Store
	)
	if *dataDir != "" {
		var err error
		st, err = durable.Open(*dataDir, durable.Options{Meta: durable.Meta{
			Engine:   *engineName,
			Seed:     *seed,
			BaseRows: int64(*rows),
		}})
		if err != nil {
			return err
		}
		rec, err := st.Recover()
		if err != nil {
			return err
		}
		if rec.Checkpoint != nil {
			// Warm start: prepare from the checkpoint (skipping datagen and,
			// when the engine can adopt its own permutation back, the sampling
			// reorder too), then redo the WAL tail through the ingest path.
			db = rec.Checkpoint.DB
			eng, err = core.NewEngine(*engineName)
			if err != nil {
				return err
			}
			caps = engine.CapabilitiesOf(eng)
			eopts := engine.Options{Confidence: s.Confidence, Seed: s.Seed}
			start := time.Now()
			warm := caps.ReorderedPreparer != nil
			if warm {
				err = caps.ReorderedPreparer.PrepareReordered(db, rec.Checkpoint.Perm, eopts)
			} else {
				err = eng.Prepare(db, eopts)
			}
			if err != nil {
				return err
			}
			if len(rec.Batches) > 0 {
				app := caps.Appender
				if app == nil {
					return fmt.Errorf("serve: %d WAL batches to replay but engine %s cannot append", len(rec.Batches), eng.Name())
				}
				ap := ingest.NewApplier(db, app)
				for _, b := range rec.Batches {
					if _, err := ap.Apply(b); err != nil {
						return fmt.Errorf("serve: wal replay: %w", err)
					}
				}
				if got := app.Watermark(); got != rec.Info.Watermark {
					return fmt.Errorf("serve: wal replay ended at watermark %d, recovery expected %d", got, rec.Info.Watermark)
				}
			}
			mode := "warm"
			if !warm {
				mode = "re-prepared"
			}
			note := ""
			if rec.Info.FellBack {
				note += "; newest checkpoint failed verification, used an older one"
			}
			if rec.Info.TruncatedTail {
				note += "; torn WAL tail truncated"
			}
			fmt.Printf("recovered (%s) from %s: checkpoint v%d + %d WAL batches (%d rows) -> watermark %d%s, in %v\n",
				mode, *dataDir, rec.Info.CheckpointVersion, rec.Info.ReplayedBatches,
				rec.Info.ReplayedRows, rec.Info.Watermark, note, time.Since(start).Round(time.Microsecond))
		}
	}
	if eng == nil {
		// Cold start: build the base dataset and prepare from scratch.
		var err error
		db, err = core.BuildData(*rows, *useJoins, *seed)
		if err != nil {
			return err
		}
		p, err := core.Prepare(*engineName, db, s)
		if err != nil {
			return err
		}
		eng = p.Engine
		caps = engine.CapabilitiesOf(eng)
		fmt.Printf("data preparation time: %v\n", p.PrepTime.Round(time.Microsecond))
		if st != nil {
			// First boot of a durable directory: checkpoint the prepared base
			// (in the engine's own storage order when it exposes one) so every
			// later restart is warm.
			bdb, perm := db, []uint32(nil)
			if vs := caps.ViewSnapshotter; vs != nil {
				bdb, perm = vs.SnapshotView()
			}
			if err := st.Bootstrap(bdb, perm); err != nil {
				return err
			}
			fmt.Printf("durable state bootstrapped in %s\n", *dataDir)
		}
	}

	servedRows := int64(db.Fact.NumRows())
	opts := server.Options{
		MaxConns:           *maxConns,
		PollInterval:       *poll,
		Seed:               *seed,
		MaxInflight:        *maxInflight,
		MaxInflightPerConn: *maxInflightConn,
		RetryHint:          *retryHint,
		LateFactor:         *lateFactor,
		PingInterval:       *pingInterval,
		IdleTimeout:        *idleTimeout,
	}
	if app := caps.Appender; app != nil {
		servedRows = app.Watermark()
		ap := ingest.NewApplier(db, app)
		if st != nil {
			// Write-ahead ordering: the Applier logs (and fsyncs) every
			// validated batch before the engine absorbs it or any client
			// hears an ack.
			ap.SetLog(st.LogBatch)
		}
		opts.Apply = ap.Apply
		fmt.Printf("live ingestion enabled: client ingest frames append to %s\n", eng.Name())
	}
	opts.Rows = servedRows
	var stopCkpt func()
	if st != nil {
		opts.Durable = durableServer{st}
		if vs := caps.ViewSnapshotter; vs != nil {
			stopCkpt = st.AutoCheckpoint(*ckptInterval, *ckptWALBytes, vs.SnapshotView, func(err error) {
				fmt.Fprintln(os.Stderr, "idebench: background checkpoint:", err)
			})
		}
	}
	srv := server.New(eng, opts)
	l, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Printf("serving %s (%d rows) on %s — /ws (protocol v%d), /healthz\n",
		eng.Name(), servedRows, l.Addr(), server.ProtoVersion)

	// closeDurable stops the background checkpointer, captures one final
	// checkpoint (so the next boot replays an empty WAL tail) and closes the
	// log. Safe on every exit path; a no-op without -data-dir.
	closeDurable := func() error {
		if stopCkpt != nil {
			stopCkpt()
		}
		if st == nil {
			return nil
		}
		if vs := caps.ViewSnapshotter; vs != nil {
			vdb, perm := vs.SnapshotView()
			if err := st.Checkpoint(vdb, perm); err != nil {
				fmt.Fprintln(os.Stderr, "idebench: final checkpoint:", err)
			}
		}
		return st.Close()
	}
	return serveAndDrain(srv, l, *drain, closeDurable)
}

// serveAndDrain runs srv on l until it exits or a SIGTERM/SIGINT arrives;
// the first signal drains in-flight queries to their final snapshots within
// the budget, a second aborts immediately. onExit (optional) runs on every
// exit path after serving stops.
func serveAndDrain(srv *server.Server, l net.Listener, drain time.Duration, onExit func() error) error {
	if onExit == nil {
		onExit = func() error { return nil }
	}
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, syscall.SIGTERM, syscall.SIGINT)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	select {
	case err := <-done:
		cerr := onExit()
		if err != nil {
			return err
		}
		return cerr
	case sig := <-sigs:
		fmt.Printf("received %v, draining (budget %v)\n", sig, drain)
		ctx, cancel := context.WithTimeout(context.Background(), drain)
		defer cancel()
		go func() {
			<-sigs
			cancel()
		}()
		if err := srv.Shutdown(ctx); err != nil {
			_ = onExit()
			return err
		}
		<-done
		if err := onExit(); err != nil {
			return err
		}
		fmt.Println("drained, bye")
		return nil
	}
}

func cmdShard(args []string) error {
	fs := flag.NewFlagSet("shard", flag.ExitOnError)
	engineName := fs.String("engine", "progressive", "engine serving this partition: "+strings.Join(core.EngineNames, ", "))
	rows := fs.Int("rows", core.SizeM, "FULL dataset size (tuples); every member of the tier states the same value")
	seed := fs.Int64("seed", 1, "random seed (must match the coordinator and every other shard)")
	shardIndex := fs.Int("shard-index", 0, "this shard's ID in [0, shard-count)")
	shardCount := fs.Int("shard-count", 1, "number of shards the fact table is hash-partitioned across")
	replicaOf := fs.Int("replica-of", -1, "serve as an additional replica of this partition (overrides -shard-index; replicas of one partition are interchangeable processes holding the same deterministic slice)")
	addr := fs.String("addr", ":9001", "listen address")
	maxConns := fs.Int("max-conns", server.DefaultMaxConns, "maximum concurrent connections")
	poll := fs.Duration("poll", server.DefaultPollInterval, "snapshot streaming poll interval")
	drain := fs.Duration("drain", 15*time.Second, "graceful-drain budget on SIGTERM/SIGINT")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *replicaOf >= 0 {
		// A replica holds exactly the partition it replicates: same derivation,
		// same rows. The distinct spelling documents intent in process tables.
		*shardIndex = *replicaOf
	}
	if *shardCount < 1 || *shardIndex < 0 || *shardIndex >= *shardCount {
		return fmt.Errorf("shard: -shard-index %d out of range for -shard-count %d", *shardIndex, *shardCount)
	}

	// Every tier member builds the same full dataset and computes the same
	// deterministic hash partitioning; this process keeps partition
	// -shard-index and drops the rest. Nothing is shipped between processes
	// at prepare time.
	db, err := core.BuildData(*rows, false, *seed)
	if err != nil {
		return err
	}
	parts, err := shard.Partition(db, *shardCount)
	if err != nil {
		return err
	}
	part := parts[*shardIndex]

	s := core.DefaultSettings()
	s.DataSize = *rows
	s.Seed = *seed
	p, err := core.Prepare(*engineName, part, s)
	if err != nil {
		return err
	}
	eng := p.Engine
	fmt.Printf("shard %d/%d holds %d of %d rows; data preparation time: %v\n",
		*shardIndex, *shardCount, part.Fact.NumRows(), db.Fact.NumRows(), p.PrepTime.Round(time.Microsecond))

	opts := server.Options{
		MaxConns:     *maxConns,
		PollInterval: *poll,
		Rows:         int64(part.Fact.NumRows()),
		Seed:         *seed,
		Role:         "shard",
	}
	if app := engine.CapabilitiesOf(eng).Appender; app != nil {
		// The coordinator routes ingest sub-batches here; they materialize
		// and validate against this shard's own partition.
		ap := ingest.NewApplier(part, app)
		opts.Apply = ap.Apply
	}
	srv := server.New(eng, opts)
	l, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Printf("serving %s (%d rows) on %s — /ws (protocol v%d), /healthz\n",
		eng.Name(), part.Fact.NumRows(), l.Addr(), server.ProtoVersion)
	return serveAndDrain(srv, l, *drain, nil)
}

// dialReplica opens one coordinator-side backend connection to a shard
// replica: partials requested on every query (the merge needs raw
// fragments), transparent reconnect (a replica restart must not wedge the
// tier — the health loop re-syncs it).
func dialReplica(addr string) (*server.Remote, error) {
	return server.NewRemoteWithOptions(strings.TrimSpace(addr),
		server.RemoteOptions{Partials: true, Reconnect: true})
}

// antiEntropyQuery is the background divergence probe: a full-table COUNT by
// carrier — cheap, deterministic, and touching every row, so replicas that
// lost or duplicated a batch cannot agree on it.
func antiEntropyQuery(db *dataset.Database) *query.Query {
	return &query.Query{
		VizName: "ae_count", Table: db.Fact.Name,
		Bins: []query.Binning{{Field: "carrier", Kind: dataset.Nominal}},
		Aggs: []query.Aggregate{{Func: query.Count}},
	}
}

// splitAddrs parses a comma-separated address list, trimming blanks.
func splitAddrs(s string) []string {
	var out []string
	for _, a := range strings.Split(s, ",") {
		if a = strings.TrimSpace(a); a != "" {
			out = append(out, a)
		}
	}
	return out
}

// standbyWait blocks until the primary coordinator at primary is
// probe-confirmed dead: failures consecutive /healthz probes failed. While
// waiting it tails the shared journal read-only — a torn trailing record is
// the primary mid-append, which a non-owning read stops before rather than
// truncating — so the takeover starts from state the standby has already
// seen and validated.
func standbyWait(primary, dataDir string, interval time.Duration, failures int) error {
	if failures < 1 {
		failures = 1
	}
	client := &http.Client{Timeout: server.PingTimeout}
	consecutive := 0
	lastGlobal := int64(-1)
	for {
		if st, _, err := shard.ReadCoordState(dataDir); err == nil && st != nil && st.Global != lastGlobal {
			lastGlobal = st.Global
			fmt.Printf("standby: tailing %s — global version %d over %d partitions\n",
				dataDir, st.Global, len(st.Parts))
		}
		resp, err := client.Get("http://" + primary + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body) //nolint:errcheck
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				consecutive = 0
				time.Sleep(interval)
				continue
			}
		}
		consecutive++
		fmt.Printf("standby: primary %s probe failed (%d/%d)\n", primary, consecutive, failures)
		if consecutive >= failures {
			fmt.Printf("standby: primary %s confirmed dead, taking over\n", primary)
			return nil
		}
		time.Sleep(interval)
	}
}

// recoverCoordinator rebuilds a serving coordinator from journaled
// control-plane state: every journaled replica is re-dialed at its
// journaled address, then the partition map, version log and quarantine
// flags are restored verbatim — watermark translation after the takeover
// is exactly what the previous incarnation acked. Sync flags are re-proved
// from each replica's live watermark, not trusted.
func recoverCoordinator(db *dataset.Database, st *shard.CoordState, coOpts shard.Options) (*shard.Coordinator, []*server.Remote, error) {
	var rems []*server.Remote
	fail := func(err error) (*shard.Coordinator, []*server.Remote, error) {
		for _, r := range rems {
			r.Close()
		}
		return nil, nil, err
	}
	specs := make([][]shard.ReplicaSpec, len(st.Parts))
	for i, set := range st.Parts {
		for _, ps := range set {
			if ps.Addr == "" {
				return fail(fmt.Errorf("coord: journaled replica %s of partition %d has no address; in-process members cannot be re-dialed", ps.Name, i))
			}
			rem, err := dialReplica(ps.Addr)
			if err != nil {
				return fail(fmt.Errorf("coord: re-dial partition %d replica %s at %s: %w", i, ps.Name, ps.Addr, err))
			}
			rems = append(rems, rem)
			specs[i] = append(specs[i], shard.ReplicaSpec{Engine: rem, Addr: ps.Addr, Name: ps.Name})
		}
	}
	co, err := shard.NewReplicatedSpecs(coOpts, specs...)
	if err != nil {
		return fail(err)
	}
	if err := co.Restore(db, st); err != nil {
		return fail(err)
	}
	return co, rems, nil
}

func cmdCoord(args []string) error {
	fs := flag.NewFlagSet("coord", flag.ExitOnError)
	rows := fs.Int("rows", core.SizeM, "FULL dataset size (tuples); must match the shard servers")
	seed := fs.Int64("seed", 1, "random seed (must match the shard servers)")
	shards := fs.String("shards", "", "comma-separated shard replica sets, '/'-separated replicas within a set (e.g. h:9001/h:9101,h:9002/h:9102); set ORDER assigns partition IDs and must match each server's -shard-index/-replica-of; ignored when -data-dir holds recoverable state")
	addr := fs.String("addr", ":8373", "listen address")
	maxConns := fs.Int("max-conns", server.DefaultMaxConns, "maximum concurrent connections")
	poll := fs.Duration("poll", server.DefaultPollInterval, "snapshot streaming poll interval")
	drain := fs.Duration("drain", 15*time.Second, "graceful-drain budget on SIGTERM/SIGINT")
	maxInflight := fs.Int("max-inflight", server.DefaultMaxInflight, "admission cap on concurrently executing queries server-wide")
	maxInflightConn := fs.Int("max-inflight-per-conn", server.DefaultMaxInflightPerConn, "admission cap on one connection's concurrent queries")
	lateFactor := fs.Float64("late-factor", server.DefaultLateFactor, "shed queries still running past this multiple of their stated deadline (negative disables)")
	minCoverage := fs.Float64("min-coverage", 0, "refuse degraded merged results whose live population fraction is below this floor (0 serves any non-empty coverage)")
	healthInterval := fs.Duration("health-interval", time.Second, "replica health-probe cadence (0 disables the loop)")
	antiEntropy := fs.Duration("anti-entropy", 0, "background replica divergence-check cadence, bitwise over canonical fragments (0 disables)")
	dataDir := fs.String("data-dir", "", "control-plane journal directory: membership, quarantine flags and the version log are write-ahead-logged here before acks and recovered on restart (empty = in-memory only)")
	standbyOf := fs.String("standby-of", "", "run as a warm standby of the primary coordinator at this address: tail the shared -data-dir journal, probe the primary, and take over serving once it is probe-confirmed dead (requires -data-dir)")
	probeInterval := fs.Duration("probe-interval", 500*time.Millisecond, "standby's primary-death probe cadence")
	takeoverFailures := fs.Int("takeover-failures", 3, "consecutive failed probes before the standby takes over")
	peers := fs.String("peers", "", "comma-separated list of every address this serving tier is reachable at (primary first, then standbys); stated on hello frames so clients learn where to redial")
	if err := fs.Parse(args); err != nil {
		return err
	}

	// The coordinator computes the same partitioning the shards did, both to
	// sanity-check each replica's prepared row count and to route ingest.
	db, err := core.BuildData(*rows, false, *seed)
	if err != nil {
		return err
	}

	if *standbyOf != "" {
		if *dataDir == "" {
			return errors.New("coord: -standby-of requires -data-dir (the journal the standby tails)")
		}
		// Block here — dataset built, warm — until the primary is confirmed
		// dead; only then take ownership of the journal and bind the listener.
		if err := standbyWait(*standbyOf, *dataDir, *probeInterval, *takeoverFailures); err != nil {
			return err
		}
	}

	coOpts := shard.Options{MinCoverage: *minCoverage}
	var journal *shard.CoordJournal
	if *dataDir != "" {
		journal, err = shard.OpenCoordJournal(*dataDir)
		if err != nil {
			return err
		}
		defer journal.Close()
		coOpts.Journal = journal
	}

	var co *shard.Coordinator
	if st := func() *shard.CoordState {
		if journal == nil {
			return nil
		}
		return journal.State()
	}(); st != nil {
		var rems []*server.Remote
		co, rems, err = recoverCoordinator(db, st, coOpts)
		if err != nil {
			return err
		}
		for _, rem := range rems {
			defer rem.Close()
		}
		fmt.Printf("recovered coordinator over %d partitions (%d replicas) at global version %d from %s\n",
			co.Shards(), len(rems), co.Watermark(), *dataDir)
	} else {
		if *shards == "" {
			return errors.New("coord: -shards is required (comma-separated replica sets, '/' between replicas)")
		}
		partSpecs := strings.Split(*shards, ",")
		specs := make([][]shard.ReplicaSpec, len(partSpecs))
		replicas := 0
		for i, spec := range partSpecs {
			for _, a := range strings.Split(spec, "/") {
				a = strings.TrimSpace(a)
				rem, err := dialReplica(a)
				if err != nil {
					return fmt.Errorf("coord: partition %d replica at %s: %w", i, a, err)
				}
				defer rem.Close()
				specs[i] = append(specs[i], shard.ReplicaSpec{Engine: rem, Addr: a})
				replicas++
			}
		}
		co, err = shard.NewReplicatedSpecs(coOpts, specs...)
		if err != nil {
			return err
		}
		s := core.DefaultSettings()
		start := time.Now()
		if err := co.Prepare(db, engine.Options{Confidence: s.Confidence, Seed: *seed}); err != nil {
			return err
		}
		fmt.Printf("coordinator over %d partitions (%d replicas); partition check + prepare in %v\n",
			co.Shards(), replicas, time.Since(start).Round(time.Microsecond))
	}
	if *healthInterval > 0 {
		defer co.StartHealthLoop(*healthInterval)()
	}
	if *antiEntropy > 0 {
		defer co.StartAntiEntropyLoop(*antiEntropy, 30*time.Second, func() *query.Query {
			return antiEntropyQuery(db)
		})()
	}

	opts := server.Options{
		MaxConns:           *maxConns,
		PollInterval:       *poll,
		Rows:               int64(db.Fact.NumRows()),
		Seed:               *seed,
		MaxInflight:        *maxInflight,
		MaxInflightPerConn: *maxInflightConn,
		LateFactor:         *lateFactor,
		Role:               "coord",
		Peers:              splitAddrs(*peers),
	}
	// Ingest frames route through the coordinator: validate against the full
	// database, then hash-split to the owning shards and wait for their
	// confirmed watermarks (the applier's returned watermark is the global
	// min, which is what the ack broadcast should carry).
	ap := ingest.NewApplier(db, co)
	opts.Apply = ap.Apply
	// POST /rebalance changes the replica topology while serving: attach a
	// cold replica (it re-syncs from its own durable state and is promoted by
	// the health loop), or detach one by name. The checkpoint-streaming
	// "rebalance" handoff is an in-process transfer — a shard process owns
	// its durable state, so a remote newcomer joins via "add" and proves
	// freshness through its watermark instead of receiving streamed state.
	opts.Rebalance = func(req server.RebalanceRequest) error {
		switch req.Op {
		case "remove":
			return co.RemoveReplica(req.Partition, req.Name)
		case "add":
			rem, err := dialReplica(req.Addr)
			if err != nil {
				return fmt.Errorf("coord: dial new replica %s: %w", req.Addr, err)
			}
			if err := co.AddReplicaAddr(req.Partition, rem, strings.TrimSpace(req.Addr)); err != nil {
				rem.Close()
				return err
			}
			return nil
		case "rebalance":
			return errors.New("coord: checkpoint-streaming handoff needs an in-process target; remote replicas join via op \"add\" and re-sync from their own durable state")
		}
		return fmt.Errorf("coord: unknown rebalance op %q", req.Op)
	}
	srv := server.New(co, opts)
	l, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Printf("serving %s (%d rows) on %s — /ws (protocol v%d), /healthz, /rebalance\n",
		co.Name(), db.Fact.NumRows(), l.Addr(), server.ProtoVersion)
	return serveAndDrain(srv, l, *drain, nil)
}

// cmdRebalance posts one topology change to a running coordinator's
// /rebalance admin endpoint.
func cmdRebalance(args []string) error {
	fs := flag.NewFlagSet("rebalance", flag.ExitOnError)
	addr := fs.String("addr", "localhost:8373", "coordinator address")
	op := fs.String("op", "add", "topology change: add (attach a shard replica), remove (detach a replica by name)")
	partition := fs.Int("partition", 0, "target partition ID")
	shardAddr := fs.String("shard-addr", "", "replica address (host:port) for -op add")
	name := fs.String("name", "", "replica name for -op remove (as reported on /healthz topology)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	body, err := json.Marshal(server.RebalanceRequest{
		Op: *op, Partition: *partition, Addr: *shardAddr, Name: *name,
	})
	if err != nil {
		return err
	}
	resp, err := http.Post("http://"+*addr+"/rebalance", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("rebalance: %s: %s", resp.Status, strings.TrimSpace(string(out)))
	}
	fmt.Printf("rebalance %s partition %d: ok\n", *op, *partition)
	return nil
}

// resultDigest is a canonical bitwise fingerprint of a result's bins: keys
// in sorted order, every value and margin as its IEEE-754 bits. Two results
// digest equal iff their rendered aggregates are bitwise identical — the
// shell-tier counterpart of the Go tests' bin-by-bin comparison.
func resultDigest(res *query.Result) uint64 {
	h := fnv.New64a()
	buf := make([]byte, 8)
	put := func(v uint64) {
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf)
	}
	for _, k := range res.SortedKeys() {
		put(uint64(k.A))
		put(uint64(k.B))
		bv := res.Bins[k]
		for _, v := range bv.Values {
			put(math.Float64bits(v))
		}
		for _, m := range bv.Margins {
			put(math.Float64bits(m))
		}
	}
	return h.Sum64()
}

// cmdProbe runs one full-table COUNT against a server and reports the
// result's coverage, watermark and a canonical digest — a CI assertion
// primitive for the elasticity walls. With -expect it exits non-zero unless
// the outcome matches: "full" (complete answer, full coverage), "degraded"
// (coverage-annotated partial-population answer) or "refused" (no result —
// the tier is below its -min-coverage floor or fully unreachable).
func cmdProbe(args []string) error {
	fs := flag.NewFlagSet("probe", flag.ExitOnError)
	addr := fs.String("addr", "localhost:8373", "server address to probe; a comma-separated list probes through the failover rotation (primary first)")
	rows := fs.Int("rows", core.SizeM, "dataset size the server was prepared with")
	seed := fs.Int64("seed", 1, "dataset seed the server was prepared with")
	timeout := fs.Duration("timeout", 30*time.Second, "probe query budget")
	expect := fs.String("expect", "", "assert the outcome: full, degraded or refused (empty = report only)")
	minFraction := fs.Float64("min-fraction", 0, "fail unless the covered population fraction is at least this")
	if err := fs.Parse(args); err != nil {
		return err
	}
	db, err := core.BuildData(*rows, false, *seed)
	if err != nil {
		return err
	}
	addrs := splitAddrs(*addr)
	if len(addrs) == 0 {
		return errors.New("probe: -addr is empty")
	}
	rem, err := server.NewRemoteWithOptions(addrs[0], server.RemoteOptions{
		Addrs: addrs[1:], Reconnect: len(addrs) > 1,
	})
	if err != nil {
		return err
	}
	defer rem.Close()
	h, err := rem.StartQuery(antiEntropyQuery(db))
	if err != nil {
		return fmt.Errorf("probe: %w", err)
	}
	select {
	case <-h.Done():
	case <-time.After(*timeout):
		h.Cancel()
		return fmt.Errorf("probe: no final frame within %v", *timeout)
	}
	res := h.Snapshot()

	outcome := "refused"
	fraction := 0.0
	if res != nil {
		cov := res.Coverage
		fraction = 1
		if cov.Full() {
			outcome = "full"
		} else {
			outcome = "degraded"
			fraction = cov.PopulationFraction
		}
		var total float64
		for _, bv := range res.Bins {
			if len(bv.Values) > 0 {
				total += bv.Values[0]
			}
		}
		fmt.Printf("probe %s: %s — count %.0f over %d bins, watermark %d, complete %v, fraction %.4f, digest %016x\n",
			*addr, outcome, total, len(res.Bins), res.Watermark, res.Complete, fraction, resultDigest(res))
		if cov != nil {
			fmt.Printf("coverage: %d/%d partitions, population fraction %.4f, degraded %v\n",
				cov.PartitionsAnswered, cov.PartitionsTotal, cov.PopulationFraction, cov.Degraded)
		}
	} else {
		fmt.Printf("probe %s: refused (no result", *addr)
		if err := rem.Err(); err != nil {
			fmt.Printf("; server said: %v", err)
		}
		fmt.Println(")")
	}
	if *expect != "" && outcome != *expect {
		return fmt.Errorf("probe: outcome %q, expected %q", outcome, *expect)
	}
	if *minFraction > 0 && fraction < *minFraction {
		return fmt.Errorf("probe: covered fraction %.4f below required %.4f", fraction, *minFraction)
	}
	return nil
}

// durableServer adapts a durable.Store to the server's Durability hooks —
// recovery/WAL status for /healthz and the drain-time flush barrier —
// without the server package importing durable.
type durableServer struct{ st *durable.Store }

func (d durableServer) DurableStatus() server.DurableStatus {
	s := d.st.Status()
	return server.DurableStatus{
		Recovered:             s.Recovered,
		FellBack:              s.FellBack,
		CheckpointVersion:     s.CheckpointVersion,
		ReplayedBatches:       s.ReplayedBatches,
		ReplayedRows:          s.ReplayedRows,
		TruncatedTail:         s.TruncatedTail,
		RecoveredWatermark:    s.Watermark,
		WALBytes:              s.WALBytes,
		Checkpoints:           s.Checkpoints,
		LastCheckpointVersion: s.LastCheckpointVersion,
	}
}

func (d durableServer) Flush() error { return d.st.Flush() }

func cmdInspect(args []string) error {
	fs := flag.NewFlagSet("inspect", flag.ExitOnError)
	dataDir := fs.String("data-dir", "", "durable state directory to inspect")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dataDir == "" {
		return errors.New("inspect: -data-dir is required")
	}
	return durable.Inspect(*dataDir, nil, os.Stdout)
}

func cmdLoad(args []string) error {
	fs := flag.NewFlagSet("load", flag.ExitOnError)
	addr := fs.String("addr", "localhost:8373", "server address to load")
	workload := fs.String("workload", "uniform", "workload: "+strings.Join(loadgen.Names(), ", "))
	schedule := fs.String("schedule", "poisson", "arrival schedule: poisson, bursty, ramp")
	rate := fs.Float64("rate", 100, "arrivals/second (poisson rate, bursty base rate, ramp start rate)")
	rate2 := fs.Float64("rate2", 0, "second rate: bursty burst rate / ramp end rate (default 10x -rate)")
	period := fs.Duration("period", time.Second, "bursty: burst cadence")
	burstLen := fs.Duration("burst-len", 200*time.Millisecond, "bursty: burst duration")
	over := fs.Duration("over", 0, "ramp: sweep duration from -rate to -rate2 (default -duration)")
	duration := fs.Duration("duration", 5*time.Second, "offered-load window")
	sessions := fs.Int("sessions", 8, "connection/session pool size")
	deadline := fs.Duration("deadline", 12*time.Millisecond, "per-query interactivity deadline (sent as the server's shedding hint)")
	outstanding := fs.Int("outstanding", 4096, "client-side cap on outstanding operations")
	reconnect := fs.Bool("reconnect", false, "transparently redial dropped connections with backoff")
	rows := fs.Int("rows", core.SizeM, "dataset size the server was prepared with (for op synthesis)")
	seed := fs.Int64("seed", 1, "dataset seed the server was prepared with")
	gateDoneP99 := fs.Duration("gate-done-p99", 0, "fail unless admitted time-to-final p99 stays under this (0 disables)")
	gateZeroErrors := fs.Bool("gate-zero-errors", false, "fail on any hard error (rejections and drops are not errors)")
	gateRejects := fs.Bool("gate-rejects", false, "fail unless the server rejected or shed at least once (proves the run crossed the knee)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *rate2 <= 0 {
		*rate2 = 10 * *rate
	}
	var sched loadgen.Schedule
	switch *schedule {
	case "poisson":
		sched = loadgen.Poisson{Rate: *rate}
	case "bursty":
		sched = loadgen.Bursty{BaseRate: *rate, BurstRate: *rate2, Period: *period, BurstLen: *burstLen}
	case "ramp":
		rampOver := *over
		if rampOver <= 0 {
			rampOver = *duration
		}
		sched = loadgen.Ramp{From: *rate, To: *rate2, Over: rampOver}
	default:
		return fmt.Errorf("unknown schedule %q (want poisson, bursty or ramp)", *schedule)
	}

	// The generator synthesizes ops against the same deterministic dataset
	// the server prepared; only the column metadata is used, so build the
	// flat schema locally and never ship a byte of it.
	db, err := core.BuildData(*rows, false, *seed)
	if err != nil {
		return err
	}
	wl, err := loadgen.New(*workload, db, *seed)
	if err != nil {
		return err
	}
	rem, err := server.NewRemoteWithOptions(*addr, server.RemoteOptions{Reconnect: *reconnect})
	if err != nil {
		return err
	}
	defer rem.Close()

	fmt.Printf("open-loop %s/%s against %s: %v window, %d sessions, %v deadline\n",
		*workload, sched.Name(), *addr, *duration, *sessions, *deadline)
	st, err := loadgen.Run(rem, wl, sched, loadgen.Config{
		Sessions:       *sessions,
		Duration:       *duration,
		Deadline:       *deadline,
		MaxOutstanding: *outstanding,
		Seed:           *seed,
	})
	if err != nil {
		return err
	}

	fmt.Printf("offered   %d (%.0f/s achieved)\n", st.Offered, st.OfferedRate)
	fmt.Printf("completed %d (%.0f/s), rejected %d (%.1f%%), dropped %d, errors %d\n",
		st.Completed, st.CompletedRate, st.Rejected, st.RejectedPct(), st.Dropped, st.Errors)
	fmt.Printf("shed %d, deadline violations %d (%.1f%% of admitted), ingest ops %d\n",
		st.Shed, st.Violations, st.ViolationPct(), st.IngestOps)
	fmt.Printf("ttfs p50/p99/p99.9  %.2f / %.2f / %.2f ms\n", st.TTFS.P50, st.TTFS.P99, st.TTFS.P999)
	fmt.Printf("done p50/p99/p99.9  %.2f / %.2f / %.2f ms\n", st.Done.P50, st.Done.P99, st.Done.P999)
	fmt.Printf("elapsed %v\n", st.Elapsed.Round(time.Millisecond))

	// Gates make the command a CI assertion: exit non-zero when the server's
	// overload behavior regressed.
	var failures []string
	if *gateDoneP99 > 0 && st.Completed > 0 {
		if limit := float64(*gateDoneP99) / float64(time.Millisecond); st.Done.P99 > limit {
			failures = append(failures, fmt.Sprintf("admitted done-p99 %.2fms exceeds gate %v", st.Done.P99, *gateDoneP99))
		}
	}
	if *gateZeroErrors && st.Errors > 0 {
		failures = append(failures, fmt.Sprintf("%d hard errors (gate requires zero)", st.Errors))
	}
	if *gateRejects && st.Rejected == 0 && st.Shed == 0 {
		failures = append(failures, "no rejections or shedding observed (gate requires the run to cross the knee)")
	}
	if len(failures) > 0 {
		return fmt.Errorf("load gates failed:\n  %s", strings.Join(failures, "\n  "))
	}
	return nil
}

func writeDetailed(path string, recs []driver.Record) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := report.WriteDetailedCSV(f, recs); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func cmdAnalyze(args []string) error {
	fs := flag.NewFlagSet("analyze", flag.ExitOnError)
	path := fs.String("detailed", "detailed.csv", "detailed report CSV to analyze")
	byType := fs.Bool("by-type", false, "group the summary by workflow type instead of time requirement")
	effects := fs.Bool("effects", true, "also print the Exp.-4 factor analysis")
	if err := fs.Parse(args); err != nil {
		return err
	}
	f, err := os.Open(*path)
	if err != nil {
		return err
	}
	recs, err := report.ReadDetailedCSV(f)
	f.Close()
	if err != nil {
		return err
	}
	g := report.GroupBy{Driver: true, TimeReq: true, DataSize: true}
	if *byType {
		g = report.GroupBy{Driver: true, WorkflowType: true, DataSize: true}
	}
	rows := report.Summarize(recs, g)
	if err := report.RenderSummaries(os.Stdout, rows); err != nil {
		return err
	}
	if *effects {
		fmt.Println()
		if err := report.RenderEffects(os.Stdout, report.Analyze(recs)); err != nil {
			return err
		}
	}
	return nil
}

func cmdView(args []string) error {
	fs := flag.NewFlagSet("view", flag.ExitOnError)
	path := fs.String("workflows", "workflows.json", "workflow JSON file to inspect")
	name := fs.String("name", "", "only show the named workflow")
	dot := fs.Bool("dot", false, "emit the link graph as Graphviz DOT instead of text")
	if err := fs.Parse(args); err != nil {
		return err
	}
	flows, err := workflow.LoadFile(*path)
	if err != nil {
		return err
	}
	shown := 0
	for _, f := range flows {
		if *name != "" && f.Name != *name {
			continue
		}
		var out string
		if *dot {
			out, err = workflow.DOT(f)
		} else {
			out, err = workflow.Describe(f)
		}
		if err != nil {
			return err
		}
		fmt.Println(out)
		shown++
	}
	if shown == 0 {
		return fmt.Errorf("no workflows matched (file has %d)", len(flows))
	}
	return nil
}

func cmdExp(args []string) error {
	fs := flag.NewFlagSet("exp", flag.ExitOnError)
	name := fs.String("name", "fig5", "experiment: fig5, fig6a, fig6b, fig6c, fig6d, fig6e, fig6f, exp4, exp5, prep, table1, all, or a sweep ("+strings.Join(experiments.SweepNames(), ", ")+")")
	rows := fs.Int("rows", core.SizeM, "dataset size (tuples)")
	count := fs.Int("workflows", 10, "workflows per type")
	interactions := fs.Int("interactions", 18, "interactions per workflow")
	engines := fs.String("engines", "", "comma-separated engine subset (default: all)")
	quick := fs.Bool("quick", false, "reduced configuration for a fast smoke run")
	seed := fs.Int64("seed", 1, "random seed")
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := experiments.Config{
		Rows:             *rows,
		WorkflowsPerType: *count,
		Interactions:     *interactions,
		Seed:             *seed,
		Out:              os.Stdout,
	}
	if *engines != "" {
		cfg.Engines = strings.Split(*engines, ",")
	}
	if *quick {
		cfg.Rows = core.SizeS
		cfg.WorkflowsPerType = 2
		cfg.Interactions = 10
		cfg.TRs = []time.Duration{2 * time.Millisecond, 12 * time.Millisecond, 40 * time.Millisecond}
	}

	run := func(n string) error {
		start := time.Now()
		var err error
		switch n {
		case "fig5":
			_, err = experiments.Fig5(cfg)
		case "fig6a":
			_, err = experiments.Fig6a(cfg)
		case "fig6b":
			_, err = experiments.Fig6b(cfg)
		case "fig6c":
			_, err = experiments.Fig6c(cfg)
		case "fig6d":
			_, err = experiments.Fig6d(cfg)
		case "fig6e":
			_, err = experiments.Fig6e(cfg)
		case "fig6f":
			_, err = experiments.Fig6f(cfg)
		case "exp4":
			_, err = experiments.Exp4(cfg)
		case "exp5":
			_, err = experiments.Exp5(cfg)
		case "prep":
			_, err = experiments.Prep(cfg)
		case "table1":
			_, err = experiments.Table1(cfg)
		default:
			if _, ok := experiments.Sweeps[n]; !ok {
				return fmt.Errorf("unknown experiment %q", n)
			}
			_, err = experiments.RunSweep(n, cfg)
		}
		if err == nil {
			fmt.Printf("[%s done in %v]\n\n", n, time.Since(start).Round(time.Millisecond))
		}
		return err
	}

	if *name == "all" {
		figs := []string{"prep", "fig5", "fig6a", "fig6b", "fig6c", "fig6d", "fig6e", "fig6f", "exp4", "exp5", "table1"}
		for _, n := range append(figs, experiments.SweepNames()...) {
			if err := run(n); err != nil {
				return fmt.Errorf("%s: %w", n, err)
			}
		}
		return nil
	}
	return run(*name)
}
