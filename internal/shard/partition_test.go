package shard

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"idebench/internal/core"
	"idebench/internal/dataset"
	"idebench/internal/ingest"
)

// randomTable builds a rows-row table of mixed nominal and quantitative
// columns whose values include the edge cases a byte-level hash must keep
// apart: NaN, ±Inf, −0 and +0, empty strings, and strings containing 0x00.
func randomTable(t *testing.T, rng *rand.Rand, rows int) *dataset.Table {
	t.Helper()
	schema := dataset.MustSchema([]dataset.Field{
		{Name: "a", Kind: dataset.Nominal},
		{Name: "x", Kind: dataset.Quantitative},
		{Name: "b", Kind: dataset.Nominal},
		{Name: "y", Kind: dataset.Quantitative},
		{Name: "z", Kind: dataset.Quantitative},
	})
	strs := []string{"", "\x00", "a\x00b", "ab", "a", "b\x00", "carrier", "\x00\x00", "ünï"}
	nums := []float64{
		math.NaN(), math.Float64frombits(0x7ff8000000000001), math.Inf(1), math.Inf(-1),
		math.Copysign(0, -1), 0, 1, -1, math.MaxFloat64, math.SmallestNonzeroFloat64,
	}
	num := func() float64 {
		if rng.Intn(3) == 0 {
			return rng.NormFloat64() * 100
		}
		return nums[rng.Intn(len(nums))]
	}
	str := func() string {
		if rng.Intn(4) == 0 {
			return fmt.Sprintf("s%d", rng.Intn(50))
		}
		return strs[rng.Intn(len(strs))]
	}
	b := dataset.NewBuilder("fact", schema, rows)
	for r := 0; r < rows; r++ {
		b.AppendString(0, str())
		b.AppendNum(1, num())
		b.AppendString(2, str())
		b.AppendNum(3, num())
		b.AppendNum(4, num())
	}
	tbl, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return tbl
}

// referencePartition is the row-at-a-time partitioner the kernel replaced:
// rowHashTable per row, appended in row order, materialized by SelectRows.
func referencePartition(t *testing.T, db *dataset.Database, n int) []*dataset.Table {
	t.Helper()
	rows := make([][]uint32, n)
	for r := 0; r < db.Fact.NumRows(); r++ {
		i := int(rowHashTable(db.Fact, r) % uint64(n))
		rows[i] = append(rows[i], uint32(r))
	}
	out := make([]*dataset.Table, n)
	for i := range out {
		tbl, err := dataset.SelectRows(db.Fact, rows[i])
		if err != nil {
			t.Fatalf("SelectRows: %v", err)
		}
		out[i] = tbl
	}
	return out
}

// TestPartitionKernelMatchesReference is the kernel's property wall: on
// randomized edge-case tables (including 0 rows and fewer rows than
// workers) every per-row hash equals the row-at-a-time rowHashTable and the
// ingest-path hash of the same row, and every partition is byte-identical
// under the checkpoint codec to the reference partitioner's, for any worker
// count.
func TestPartitionKernelMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, rows := range []int{0, 1, 3, 7, 100, 2*hashBlock + 17, 3 * minRowsPerWorker} {
		tbl := randomTable(t, rng, rows)
		db := &dataset.Database{Fact: tbl}
		batch := ingest.FromTable(tbl, 0, rows)
		for _, w := range []int{1, 2, 3, 8} {
			h := tableHashes(tbl, w)
			if len(h) != rows {
				t.Fatalf("rows=%d w=%d: %d hashes", rows, w, len(h))
			}
			for r := range h {
				if want := rowHashTable(tbl, r); h[r] != want {
					t.Fatalf("rows=%d w=%d row %d: kernel hash %#x, reference %#x", rows, w, r, h[r], want)
				}
				if got := rowHashIngest(batch.Rows[r]); got != h[r] {
					t.Fatalf("rows=%d w=%d row %d: ingest hash %#x, kernel %#x", rows, w, r, got, h[r])
				}
				for _, n := range []int{2, 3, 7} {
					if got, want := HomeShard(batch.Rows[r], n), int(h[r]%uint64(n)); got != want {
						t.Fatalf("rows=%d row %d n=%d: HomeShard %d, kernel %d", rows, r, n, got, want)
					}
				}
			}
		}
		for _, n := range []int{1, 2, 3, 7} {
			want := referencePartition(t, db, n)
			got, err := Partition(db, n)
			if err != nil {
				t.Fatalf("Partition(rows=%d, n=%d): %v", rows, n, err)
			}
			for _, w := range []int{1, 2, 8} {
				assigned := assignRows(tbl, n, w)
				for i := range want {
					if len(assigned[i]) != want[i].NumRows() {
						t.Fatalf("rows=%d n=%d w=%d: partition %d has %d rows, reference %d",
							rows, n, w, i, len(assigned[i]), want[i].NumRows())
					}
				}
				parts, err := materializeParts(db, assigned[n-1:])
				if err != nil {
					t.Fatalf("materializeParts: %v", err)
				}
				if !bytes.Equal(dataset.EncodeTable(parts[0].Fact), dataset.EncodeTable(want[n-1])) {
					t.Fatalf("rows=%d n=%d w=%d: last partition differs from reference", rows, n, w)
				}
			}
			for i := range want {
				if !bytes.Equal(dataset.EncodeTable(got[i].Fact), dataset.EncodeTable(want[i])) {
					t.Fatalf("rows=%d n=%d: partition %d differs from reference under EncodeTable", rows, n, i)
				}
				one, err := PartitionOf(db, n, i)
				if err != nil {
					t.Fatalf("PartitionOf: %v", err)
				}
				if !bytes.Equal(dataset.EncodeTable(one.Fact), dataset.EncodeTable(want[i])) {
					t.Fatalf("rows=%d n=%d: PartitionOf(%d) differs from reference", rows, n, i)
				}
				if sizes := partitionSizes(db, n); sizes[i] != want[i].NumRows() {
					t.Fatalf("rows=%d n=%d: partitionSizes[%d] = %d, want %d", rows, n, i, sizes[i], want[i].NumRows())
				}
			}
		}
	}
}

// partitionSink keeps the benchmarked call from being optimized away.
var partitionSink []*dataset.Database

// BenchmarkPartition times the full hash partition of a SizeM fact table.
func BenchmarkPartition(b *testing.B) {
	db, err := core.BuildData(core.SizeM, false, 1)
	if err != nil {
		b.Fatal(err)
	}
	for _, n := range []int{2, 4} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				parts, err := Partition(db, n)
				if err != nil {
					b.Fatal(err)
				}
				partitionSink = parts
			}
		})
	}
}
