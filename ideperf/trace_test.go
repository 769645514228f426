package main

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"idebench/internal/core"
	"idebench/internal/dataset"
	"idebench/internal/engine"
	"idebench/internal/query"
	"idebench/internal/server"
	"idebench/internal/shard"
)

// capsPattern is the nil/non-nil pattern of every engine.Capabilities field.
func capsPattern(e engine.Engine) []bool {
	v := reflect.ValueOf(engine.CapabilitiesOf(e))
	out := make([]bool, v.NumField())
	for i := range out {
		out[i] = !v.Field(i).IsNil()
	}
	return out
}

func testQuery(db *dataset.Database, name string) *query.Query {
	return &query.Query{
		VizName: traceName(name, 7), Table: db.Fact.Name,
		Bins: []query.Binning{{Field: "carrier", Kind: dataset.Nominal}},
		Aggs: []query.Aggregate{{Func: query.Count}},
	}
}

// TestWrappersPreserveCapabilities holds every tracing wrapper to the exact
// optional-capability set of the engine it wraps — the progressive engine,
// the shard servers' engines, the coordinator and its remote backends — and
// every wrapped handle to its inner handle's PartialSnapshotter capability.
// The server's ingest, shedding and partial paths select on these, so a
// lossy wrapper would trace a different program. Snapshots run from several
// goroutines with tracing on, so -race covers the span recorder.
func TestWrappersPreserveCapabilities(t *testing.T) {
	const rows = 4000
	db, err := core.BuildData(rows, false, poolSeed)
	if err != nil {
		t.Fatal(err)
	}
	s := core.DefaultSettings()
	s.DataSize = rows
	single, err := core.Prepare("progressive", db, s)
	if err != nil {
		t.Fatal(err)
	}
	parts, err := shard.Partition(db, 2)
	if err != nil {
		t.Fatal(err)
	}
	var shardEngines []engine.Engine
	var backends []engine.Engine
	for _, part := range parts {
		p, err := core.Prepare("progressive", part, s)
		if err != nil {
			t.Fatal(err)
		}
		shardEngines = append(shardEngines, p.Engine)
		rs, err := serve(server.New(p.Engine, server.Options{Rows: int64(part.Fact.NumRows()), Role: "shard"}), nil, listenHop)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(rs.shutdown)
		rem, err := server.NewRemoteWithOptions(rs.addr, server.RemoteOptions{Partials: true})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(rem.Close)
		backends = append(backends, rem)
	}
	co, err := shard.NewCoordinator(backends...)
	if err != nil {
		t.Fatal(err)
	}
	if err := co.Prepare(db, engine.Options{Seed: 1}); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		eng  engine.Engine
		l    layer
	}{
		{"progressive", single.Engine, layerFront},
		{"shard-server-0", shardEngines[0], layerShardServer},
		{"shard-server-1", shardEngines[1], layerShardServer},
		{"coordinator", co, layerFront},
		{"remote-backend", backends[0], layerBackend},
	}
	tr := newTracer()
	tr.setEnabled(true)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			w, err := wrapEngine(c.eng, tr, c.l)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := capsPattern(w), capsPattern(c.eng); !reflect.DeepEqual(got, want) {
				t.Errorf("CapabilitiesOf(wrapper) = %v, wrapped engine has %v", got, want)
			}
			if got, want := shapeOf(w), shapeOf(c.eng); got != want {
				t.Errorf("wrapper shape %+v, wrapped engine %+v", got, want)
			}

			inner, err := c.eng.StartQuery(testQuery(db, "inner"))
			if err != nil {
				t.Fatal(err)
			}
			sess := w.OpenSession()
			defer sess.Close()
			wrapped, err := sess.StartQuery(testQuery(db, "wrapped"))
			if err != nil {
				t.Fatal(err)
			}
			_, innerPS := inner.(engine.PartialSnapshotter)
			_, wrappedPS := wrapped.(engine.PartialSnapshotter)
			if innerPS != wrappedPS {
				t.Errorf("handle PartialSnapshotter: inner %v, wrapped %v", innerPS, wrappedPS)
			}

			var wg sync.WaitGroup
			for g := 0; g < 4; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < 20; i++ {
						wrapped.Snapshot()
						if ps, ok := wrapped.(engine.PartialSnapshotter); ok {
							ps.PartialSnapshot()
						}
					}
				}()
			}
			wg.Wait()
			for _, h := range []engine.Handle{inner, wrapped} {
				select {
				case <-h.Done():
				case <-time.After(30 * time.Second):
					t.Fatal("query did not complete")
				}
			}
			if res := wrapped.Snapshot(); res == nil || !res.Complete {
				t.Errorf("wrapped final = %+v, want a complete result", res)
			}
		})
	}
	if len(tr.spans) == 0 {
		t.Error("tracing on, but no span was recorded")
	}
}

// TestSelfTime checks a span's self time removes the union of its
// children's overlap with it, counting overlapping children once.
func TestSelfTime(t *testing.T) {
	parent := span{start: 0, end: 100}
	kids := []span{{start: 10, end: 30}, {start: 20, end: 40}, {start: 90, end: 120}}
	if got := selfTime(parent, kids); got != 100-30-10 {
		t.Errorf("selfTime = %d, want 60", got)
	}
}

func TestTraceID(t *testing.T) {
	if got := traceID(traceName("viz_3", 42)); got != 42 {
		t.Errorf("traceID = %d, want 42", got)
	}
	if got := traceID("viz_3"); got != 0 {
		t.Errorf("traceID of an untagged name = %d, want 0", got)
	}
}
