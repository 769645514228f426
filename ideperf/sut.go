package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"time"

	"idebench/internal/core"
	"idebench/internal/dataset"
	"idebench/internal/durable"
	"idebench/internal/engine"
	"idebench/internal/ingest"
	"idebench/internal/server"
	"idebench/internal/shard"
)

// sut is the system under test: the serving stack built in-process from
// the repository's public APIs, reached over loopback WebSocket.
type sut struct {
	// front is the server the benchmark client talks to.
	front *running
	// frontServer exposes the admission and shedding counters.
	frontServer *server.Server
	// scanObservers are every engine whose shared-scan consumers must drain
	// to zero at quiesce.
	scanObservers map[string]engine.ScanObserver
	// scanEngines are the progressive engines the traced run samples.
	scanEngines []engine.ScanObserver
	// setup holds the data preparation time of every repetition.
	setup []time.Duration

	store  *durable.Store
	walDir string
	// stop tears everything down in reverse start order.
	stop []func()
}

// running is one server on a loopback listener.
type running struct {
	srv  *server.Server
	addr string
	done chan error
}

func serve(srv *server.Server, tr *tracer, kind listenerKind) (*running, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	rs := &running{srv: srv, addr: l.Addr().String(), done: make(chan error, 1)}
	go func() { rs.done <- srv.Serve(tr.listener(l, kind)) }()
	// Wait until Serve is accepting: a Shutdown that ran before it would
	// find no listener to stop.
	c := &http.Client{Timeout: time.Second}
	for limit := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		resp, err := c.Get("http://" + rs.addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			return rs, nil
		}
		if time.Now().After(limit) {
			rs.shutdown()
			return nil, fmt.Errorf("server on %s never answered: %w", rs.addr, err)
		}
	}
}

func (rs *running) shutdown() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	rs.srv.Shutdown(ctx) //nolint:errcheck // teardown: a slow drain is closed hard
	<-rs.done
}

func (s *sut) close() {
	for i := len(s.stop) - 1; i >= 0; i-- {
		s.stop[i]()
	}
	s.stop = nil
}

func settings(cfg *config) core.Settings {
	s := core.DefaultSettings()
	s.DataSize = cfg.rows
	s.Seed = poolSeed
	return s
}

// buildSingle prepares a single-node progressive server. With durable set
// the applier fsyncs every batch to a WAL before it acks (Prepare plus
// Bootstrap is then the set-up). Set-up is repeated cfg.setupReps times and
// the last repetition serves.
func buildSingle(cfg *config, db *dataset.Database, tr *tracer, durableWAL bool) (*sut, error) {
	s := &sut{scanObservers: map[string]engine.ScanObserver{}}
	var (
		eng engine.Engine
		st  *durable.Store
	)
	for rep := 0; rep < cfg.setupReps; rep++ {
		if st != nil {
			st.Close()
			os.RemoveAll(s.walDir)
			st = nil
		}
		eng = nil
		runtime.GC()
		var dir string
		if durableWAL {
			var err error
			if dir, err = os.MkdirTemp(cfg.workDir, "wal-"); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		p, err := core.Prepare("progressive", db, settings(cfg))
		if err != nil {
			return nil, err
		}
		if durableWAL {
			st, err = durable.Open(dir, durable.Options{Meta: durable.Meta{
				Engine: "progressive", Seed: poolSeed, BaseRows: int64(db.Fact.NumRows())}})
			if err != nil {
				return nil, err
			}
			bdb, perm := engine.CapabilitiesOf(p.Engine).ViewSnapshotter.SnapshotView()
			if err := st.Bootstrap(bdb, perm); err != nil {
				return nil, err
			}
		}
		s.setup = append(s.setup, time.Since(t0))
		eng, s.walDir = p.Engine, dir
	}
	if st != nil {
		s.store = st
		s.stop = append(s.stop, func() { st.Close(); os.RemoveAll(s.walDir) })
	}
	caps := engine.CapabilitiesOf(eng)
	s.scanObservers["progressive"] = caps.ScanObserver
	s.scanEngines = []engine.ScanObserver{caps.ScanObserver}

	front, err := tr.engine(eng, layerFront)
	if err != nil {
		return nil, err
	}
	opts := server.Options{Rows: int64(db.Fact.NumRows()), Seed: poolSeed}
	if durableWAL {
		ap := ingest.NewApplier(db, engine.CapabilitiesOf(front).Appender)
		ap.SetLog(tr.logHook(st.LogBatch))
		opts.Apply = tr.applyHook(ap.Apply)
		opts.Durable = durableStatus{st}
	}
	s.frontServer = server.New(front, opts)
	if s.front, err = serve(s.frontServer, tr, listenFront); err != nil {
		return nil, err
	}
	s.stop = append(s.stop, s.front.shutdown)
	return s, nil
}

// buildSharded prepares a coordinator over cfg.shards in-process shard
// servers, reached over loopback with partial frames. Set-up is the hash
// partition, every shard's Prepare and the coordinator's Prepare; server
// start and dialing are not counted.
func buildSharded(cfg *config, db *dataset.Database, tr *tracer) (*sut, error) {
	s := &sut{}
	for rep := 0; rep < cfg.setupReps; rep++ {
		s.close()
		runtime.GC()
		s.scanObservers = map[string]engine.ScanObserver{}
		s.scanEngines = nil

		t0 := time.Now()
		parts, err := shard.Partition(db, cfg.shards)
		if err != nil {
			return nil, err
		}
		prepared := make([]*core.Prepared, len(parts))
		for i, part := range parts {
			if prepared[i], err = core.Prepare("progressive", part, settings(cfg)); err != nil {
				return nil, err
			}
		}
		shardPrep := time.Since(t0)

		backends := make([]engine.Engine, len(parts))
		for i, p := range prepared {
			caps := engine.CapabilitiesOf(p.Engine)
			s.scanObservers[fmt.Sprintf("shard%d", i)] = caps.ScanObserver
			s.scanEngines = append(s.scanEngines, caps.ScanObserver)
			eng, err := tr.engine(p.Engine, layerShardServer)
			if err != nil {
				return nil, err
			}
			srv := server.New(eng, server.Options{
				Rows: int64(parts[i].Fact.NumRows()), Seed: poolSeed, Role: "shard"})
			rs, err := serve(srv, tr, listenHop)
			if err != nil {
				return nil, err
			}
			s.stop = append(s.stop, rs.shutdown)
			rem, err := server.NewRemoteWithOptions(rs.addr, server.RemoteOptions{Partials: true})
			if err != nil {
				return nil, err
			}
			s.stop = append(s.stop, rem.Close)
			if backends[i], err = tr.engine(rem, layerBackend); err != nil {
				return nil, err
			}
		}
		co, err := shard.NewCoordinator(backends...)
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		if err := co.Prepare(db, engine.Options{Confidence: core.DefaultConfidence, Seed: poolSeed}); err != nil {
			return nil, err
		}
		s.setup = append(s.setup, shardPrep+time.Since(t1))
		s.scanObservers["coordinator"] = co

		front, err := tr.engine(co, layerFront)
		if err != nil {
			return nil, err
		}
		s.frontServer = server.New(front, server.Options{
			Rows: int64(db.Fact.NumRows()), Seed: poolSeed, Role: "coord"})
		if s.front, err = serve(s.frontServer, tr, listenFront); err != nil {
			return nil, err
		}
		s.stop = append(s.stop, s.front.shutdown)
	}
	return s, nil
}

// durableStatus adapts a durable.Store to the server's Durability hooks.
type durableStatus struct{ st *durable.Store }

func (d durableStatus) DurableStatus() server.DurableStatus {
	st := d.st.Status()
	return server.DurableStatus{
		Recovered:         st.Recovered,
		CheckpointVersion: st.CheckpointVersion,
		WALBytes:          st.WALBytes,
		Checkpoints:       st.Checkpoints,
	}
}

func (d durableStatus) Flush() error { return d.st.Flush() }
