package durable_test

import (
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"idebench/internal/core"
	"idebench/internal/durable"
	"idebench/internal/stats"
)

// BenchmarkCheckpointBootstrap measures a durable node's first checkpoint
// of a SizeM fact table and its sampling permutation: encode, CRC, content
// digest, write and fsync of every segment, then the manifest, rename and
// directory fsync. MB/s counts segment bytes.
func BenchmarkCheckpointBootstrap(b *testing.B) {
	db, err := core.BuildData(core.SizeM, false, 1)
	if err != nil {
		b.Fatal(err)
	}
	perm := stats.Permutation(rand.New(rand.NewSource(1)), db.Fact.NumRows())
	root := b.TempDir()
	var bytes int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dir := filepath.Join(root, strconv.Itoa(i))
		st, err := durable.Open(dir, durable.Options{Meta: durable.Meta{
			Engine: "progressive", Seed: 1, BaseRows: int64(db.Fact.NumRows())}})
		if err != nil {
			b.Fatal(err)
		}
		if err := st.Bootstrap(db, perm); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		bytes = st.Status().LastCheckpointBytes
		st.Close()
		if err := os.RemoveAll(dir); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.SetBytes(bytes)
}
