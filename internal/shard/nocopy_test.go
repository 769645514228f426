package shard_test

import (
	"bytes"
	"net/http/httptest"
	"strings"
	"testing"

	"idebench/internal/dataset"
	"idebench/internal/engine"
	"idebench/internal/engine/progressive"
	"idebench/internal/ingest"
	"idebench/internal/query"
	"idebench/internal/server"
	"idebench/internal/shard"
)

// recordingEngine remembers the database it was prepared with.
type recordingEngine struct {
	engine.Engine
	db *dataset.Database
}

func (r *recordingEngine) Prepare(db *dataset.Database, opts engine.Options) error {
	r.db = db
	return r.Engine.Prepare(db, opts)
}

// sameTable reports whether two tables encode to identical checkpoint
// bytes (name, schema, dictionaries and every cell).
func sameTable(a, b *dataset.Table) bool {
	return bytes.Equal(dataset.EncodeTable(a), dataset.EncodeTable(b))
}

// serveShard prepares a progressive engine on part and serves it on a
// loopback listener, returning its address.
func serveShard(t *testing.T, part *dataset.Database, opts engine.Options) string {
	t.Helper()
	eng := progressive.New(progressive.Config{})
	if err := eng.Prepare(part, opts); err != nil {
		t.Fatalf("shard prepare: %v", err)
	}
	hsrv := httptest.NewServer(server.New(eng, server.Options{
		Rows: int64(part.Fact.NumRows()), Seed: opts.Seed, Role: "shard"}))
	t.Cleanup(hsrv.Close)
	return strings.TrimPrefix(hsrv.URL, "http://")
}

// TestAddReplicaDerivesPartition: the coordinator keeps no partition
// copies, so a replica added after Prepare is handed a partition derived
// on demand from the base database. In-process and wire replicas alike
// must be prepared with exactly Partition(db)[i], and a wire replica
// serving a different partition must be refused by its row-count check.
func TestAddReplicaDerivesPartition(t *testing.T) {
	db := buildDB(t, 12000, 23)
	const n = 3
	opts := engine.Options{Confidence: 0.95, Seed: 23}
	parts, err := shard.Partition(db, n)
	if err != nil {
		t.Fatalf("Partition: %v", err)
	}
	co, err := shard.NewCoordinator(
		progressive.New(progressive.Config{}),
		progressive.New(progressive.Config{}),
		progressive.New(progressive.Config{}),
	)
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	if err := co.Prepare(db, opts); err != nil {
		t.Fatalf("Prepare: %v", err)
	}

	for i := 0; i < n; i++ {
		rec := &recordingEngine{Engine: progressive.New(progressive.Config{})}
		if err := co.AddReplica(i, rec); err != nil {
			t.Fatalf("AddReplica(%d): %v", i, err)
		}
		if rec.db == nil || !sameTable(rec.db.Fact, parts[i].Fact) {
			t.Fatalf("in-process replica of partition %d was not prepared with Partition(db)[%d]", i, i)
		}
		if len(rec.db.Dimensions) != len(db.Dimensions) {
			t.Fatalf("partition %d: %d dimensions, base has %d", i, len(rec.db.Dimensions), len(db.Dimensions))
		}
	}

	// Wire replica: the remote's Prepare checks the derived partition's row
	// count against what the shard process serves.
	addr := serveShard(t, parts[1], opts)
	rem, err := server.NewRemoteWithOptions(addr, server.RemoteOptions{Partials: true})
	if err != nil {
		t.Fatalf("NewRemote: %v", err)
	}
	defer rem.Close()
	if parts[0].Fact.NumRows() == parts[1].Fact.NumRows() {
		t.Fatalf("test needs partitions of different sizes")
	}
	if err := co.AddReplicaAddr(0, rem, addr); err == nil {
		t.Fatalf("wire replica serving partition 1 was accepted as a replica of partition 0")
	}
	rec := &recordingEngine{Engine: rem}
	if err := co.AddReplicaAddr(1, rec, addr); err != nil {
		t.Fatalf("AddReplicaAddr(1): %v", err)
	}
	if !sameTable(rec.db.Fact, parts[1].Fact) {
		t.Fatalf("wire replica of partition 1 was not prepared with Partition(db)[1]")
	}
	if err := co.AddReplicaAddr(1, rem, addr); err != nil {
		t.Fatalf("AddReplicaAddr(1) with the bare remote: %v", err)
	}
	if got := co.Replicas(1); got != 4 {
		t.Fatalf("partition 1 has %d replicas, want 4", got)
	}
}

// TestIngestAfterPrepareInternsIntoSharedDicts: in-process replicas
// materialize ingest against the coordinator's base database, not a
// partition copy. That is only sound because partitions share the base's
// dictionaries, so a batch carrying a value no dictionary has seen yet must
// pass every replica's TableAppender dictionary-identity check: on a
// prepared tier, on a replica added after Prepare, and on a tier restored
// from its journal. A restored coordinator must also derive the same base
// row counts the journal recorded.
func TestIngestAfterPrepareInternsIntoSharedDicts(t *testing.T) {
	db := buildDB(t, 6000, 29)
	dir := t.TempDir()
	co, j, faulty := journaledTier(t, db, dir, 2, 1)
	added := shard.NewFaulty(progressive.New(progressive.Config{}))
	if err := co.AddReplica(1, added); err != nil {
		t.Fatalf("AddReplica: %v", err)
	}
	faulty[1] = append(faulty[1], added)

	carrier := db.Fact.Schema.FieldIndex("carrier")
	fresh := func(from, to int, value string, seq int64) *ingest.Batch {
		b := ingest.FromTable(db.Fact, from, to)
		for _, row := range b.Rows {
			row[carrier] = ingest.Value{IsStr: true, Str: value}
		}
		b.Seq = seq
		return b
	}
	countOf := func(eng engine.Engine, value string) float64 {
		t.Helper()
		code, ok := db.Fact.Column("carrier").Dict.Lookup(value)
		if !ok {
			t.Fatalf("%q was not interned into the base dictionary", value)
		}
		bv := runToDone(t, eng, countQuery(db)).Bins[query.BinKey{A: int64(code)}]
		if bv == nil {
			return 0
		}
		return bv.Values[0]
	}
	allSynced := func(co *shard.Coordinator, global int64) {
		t.Helper()
		for i, pt := range co.Topology().Partitions {
			for _, r := range pt.Replicas {
				if !r.Synced || r.Watermark != global {
					t.Fatalf("partition %d replica %s: synced=%v watermark=%d, want synced at %d",
						i, r.Name, r.Synced, r.Watermark, global)
				}
			}
		}
	}

	base := int64(db.Fact.NumRows())
	if err := co.ApplyBatch(fresh(0, 300, "ZZ-fresh", 1), nil); err != nil {
		t.Fatalf("ApplyBatch after Prepare: %v", err)
	}
	allSynced(co, base+300)
	if got := countOf(co, "ZZ-fresh"); got != 300 {
		t.Fatalf("fresh carrier count %v, want 300", got)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("close journal: %v", err)
	}

	st, _, err := shard.ReadCoordState(dir)
	if err != nil || st == nil {
		t.Fatalf("ReadCoordState: %v (state %v)", err, st)
	}
	parts, err := shard.Partition(db, 2)
	if err != nil {
		t.Fatalf("Partition: %v", err)
	}
	for i, p := range parts {
		if got := st.Steps[i][0].Local; got != int64(p.Fact.NumRows()) {
			t.Fatalf("journaled base of partition %d is %d rows, Partition derives %d", i, got, p.Fact.NumRows())
		}
	}
	restored, jr := recoverTier(t, db, dir, faulty)
	defer jr.Close()
	allSynced(restored, base+300)
	if err := restored.ApplyBatch(fresh(300, 500, "ZZ-after-restore", 2), nil); err != nil {
		t.Fatalf("ApplyBatch after Restore: %v", err)
	}
	allSynced(restored, base+500)
	if got := countOf(restored, "ZZ-after-restore"); got != 200 {
		t.Fatalf("post-restore carrier count %v, want 200", got)
	}

	// A different dataset derives different base partitions: Restore must
	// refuse it rather than translate watermarks on the wrong axis.
	other := buildDB(t, 6001, 29)
	mismatched, err := shard.NewReplicatedSpecs(shard.Options{}, []shard.ReplicaSpec{{Engine: faulty[0][0]}},
		[]shard.ReplicaSpec{{Engine: faulty[1][0]}, {Engine: faulty[1][1]}})
	if err != nil {
		t.Fatalf("NewReplicatedSpecs: %v", err)
	}
	if err := mismatched.Restore(other, st); err == nil || !strings.Contains(err.Error(), "derived base") {
		t.Fatalf("Restore onto a different dataset: err %v, want a derived-base mismatch", err)
	}
}
