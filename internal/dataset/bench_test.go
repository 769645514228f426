package dataset_test

import (
	"math/rand"
	"testing"

	"idebench/internal/core"
	"idebench/internal/dataset"
	"idebench/internal/stats"
)

// benchFact is the SizeM flights fact table every benchmark here runs on.
func benchFact(b *testing.B) *dataset.Table {
	b.Helper()
	db, err := core.BuildData(core.SizeM, false, 1)
	if err != nil {
		b.Fatal(err)
	}
	return db.Fact
}

// BenchmarkReorderTable measures the progressive engines' prepare-time
// gather of a SizeM fact table into its sampling permutation.
func BenchmarkReorderTable(b *testing.B) {
	fact := benchFact(b)
	perm := stats.Permutation(rand.New(rand.NewSource(1)), fact.NumRows())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dataset.ReorderTable(fact, perm); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeTable measures a warm restart's decode of a SizeM fact
// checkpoint segment, in MB/s of encoded bytes.
func BenchmarkDecodeTable(b *testing.B) {
	data := dataset.EncodeTable(benchFact(b))
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dataset.DecodeTable(data); err != nil {
			b.Fatal(err)
		}
	}
}
