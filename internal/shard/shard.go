// Package shard implements the scatter-gather serving tier: a hash
// partitioner that splits the fact table across N shards, a router that
// splits live ingest batches the same way, and a Coordinator that
// implements engine.Engine by fanning queries out to the shards and
// merging their raw accumulator fragments (engine.Partial) back into one
// progressive result.
//
// # Topology
//
// Each shard is the ordinary prepared engine — typically the shared-scan
// progressive engine behind a serve process — holding one partition of the
// fact table plus the full (small) dimension tables. The coordinator sits
// in front, speaks engine.Engine to the driver/serving layer, and owns two
// responsibilities: deterministic merging and watermark alignment.
//
// # Deterministic merging
//
// Shards expose raw accumulator state, not rendered estimates, through the
// engine.PartialSnapshotter capability. The coordinator buffers one Partial
// per shard (whatever order they arrive in), then folds them in fixed
// shard-ID order and renders once with the same float operations a local
// parallel scan uses (engine.renderScaled). Fixed fold order is what keeps
// float accumulation bitwise-deterministic across runs: addition is not
// associative in IEEE-754, so "merge in arrival order" would make results
// depend on network timing.
//
// # Routing and the min-watermark rule
//
// Ingest batches are split by the same row hash that built the partitions,
// so a row's home shard is a pure function of its values. Shard watermarks
// live on per-shard row axes; the coordinator records, for every globally
// applied batch, the (local watermark → global version) step of each shard
// and translates by flooring. A merged snapshot's Result.Watermark is the
// MINIMUM over its constituent shards' translated watermarks: the merged
// answer is only as fresh as its stalest fragment.
//
// # Elasticity
//
// Each partition may be served by a replica set rather than a single
// engine (NewReplicated). Replicas of a partition hold identical data, so
// any healthy, synced replica can answer for it; the coordinator
// health-checks replicas (StartHealthLoop), fails a mid-stream query over
// to a sibling replica without surfacing an error, and keeps ingesting to
// the survivors while a dead replica is down. A replica that rejoins is
// only promoted back to query duty once its watermark proves it has
// re-applied everything it missed.
//
// When every replica of a partition is down, queries do not fail and do
// not silently pretend to be complete: the merged result carries a
// query.Coverage block naming how many partitions answered and what
// fraction of the population they hold, and Options.MinCoverage lets an
// operator refuse answers below a floor instead. AddReplica/RemoveReplica
// and Rebalance grow, shrink and re-split the tier at runtime; handoff
// reuses the durable-checkpoint transfer format plus a capture-window tail
// replay so the moved partition attaches at a version barrier with no row
// loss. StartAntiEntropyLoop cross-checks replica sets bitwise in the
// background and reports divergence before users can observe it.
package shard

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"idebench/internal/dataset"
	"idebench/internal/ingest"
)

// FNV-1a 64-bit constants.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// Per-cell kind tags keep string and numeric bytes from colliding and
// delimit variable-length string cells. They must match between table-row
// hashing (Partition) and ingest-row hashing (RouteBatch) or a row would
// change shards between bulk load and live ingest.
const (
	tagStr = 0x01
	tagNum = 0x02
)

func hashByte(h uint64, b byte) uint64 {
	h ^= uint64(b)
	h *= fnvPrime64
	return h
}

func hashString(h uint64, s string) uint64 {
	h = hashByte(h, tagStr)
	for i := 0; i < len(s); i++ {
		h = hashByte(h, s[i])
	}
	// Terminator so "ab"+"c" and "a"+"bc" in adjacent cells differ.
	return hashByte(h, 0x00)
}

func hashNum(h uint64, f float64) uint64 {
	h = hashByte(h, tagNum)
	bits := math.Float64bits(f)
	for k := 0; k < 8; k++ {
		h = hashByte(h, byte(bits>>(8*k)))
	}
	return h
}

// rowHashTable hashes one physical row of a materialized table. Nominal
// cells hash their dictionary STRING, never the code: codes are an artifact
// of interning order and would differ between a shard's private dictionary
// and the coordinator's. It is the row-at-a-time reference that the
// column-at-a-time kernel (tableHashes) must match bit for bit.
func rowHashTable(t *dataset.Table, r int) uint64 {
	h := uint64(fnvOffset64)
	for _, col := range t.Columns {
		if col.Field.Kind == dataset.Nominal {
			h = hashString(h, col.Dict.Value(col.Codes[r]))
		} else {
			h = hashNum(h, col.Nums[r])
		}
	}
	return h
}

// rowHashIngest hashes one wire-format ingest row. The ingest codec carries
// nominal cells as bare strings and quantitative cells as numbers, so the
// byte stream fed to FNV is identical to rowHashTable's for the same row.
func rowHashIngest(row ingest.Row) uint64 {
	h := uint64(fnvOffset64)
	for _, v := range row {
		if v.IsStr {
			h = hashString(h, v.Str)
		} else {
			h = hashNum(h, v.Num)
		}
	}
	return h
}

// HomeShard returns the shard index for one ingest row under an n-way
// partitioning.
func HomeShard(row ingest.Row, n int) int {
	return int(rowHashIngest(row) % uint64(n))
}

// Partition splits db's fact table into n hash partitions. Each returned
// database holds one partition as its fact table and shares db's dimension
// tables (dimensions are small and every shard needs all of them to resolve
// foreign keys). Nominal partition columns share the parent dictionaries,
// so codes remain comparable across shards prepared from the same build —
// but the merge path never relies on that: routing and merging go through
// values, not codes. Rows keep their ascending physical order within each
// partition.
func Partition(db *dataset.Database, n int) ([]*dataset.Database, error) {
	if n <= 0 {
		return nil, fmt.Errorf("shard: partition count %d, want >= 1", n)
	}
	return materializeParts(db, assignRows(db.Fact, n, partitionWorkers(db.Fact.NumRows())))
}

// PartitionOf derives partition i of an n-way Partition of db alone: the
// same assignment, with only that partition materialized.
func PartitionOf(db *dataset.Database, n, i int) (*dataset.Database, error) {
	if n <= 0 || i < 0 || i >= n {
		return nil, fmt.Errorf("shard: partition %d of %d out of range", i, n)
	}
	rows := assignRows(db.Fact, n, partitionWorkers(db.Fact.NumRows()))
	parts, err := materializeParts(db, rows[i:i+1])
	if err != nil {
		return nil, err
	}
	return parts[0], nil
}

// partitionSizes returns the row count of each of db's n hash partitions
// without materializing any of them.
func partitionSizes(db *dataset.Database, n int) []int {
	rows := assignRows(db.Fact, n, partitionWorkers(db.Fact.NumRows()))
	sizes := make([]int, n)
	for i, r := range rows {
		sizes[i] = len(r)
	}
	return sizes
}

// hashBlock is the row block the kernel folds column by column: 2048 FNV
// states (16 KiB) stay in L1 while every column streams through them.
const hashBlock = 2048

// minRowsPerWorker keeps small tables on one goroutine, where spawning
// workers would cost more than the hashing.
const minRowsPerWorker = 16 * hashBlock

// partitionWorkers is the kernel's goroutine count for a table of rows
// rows: GOMAXPROCS, but never so many that a worker gets a sliver.
func partitionWorkers(rows int) int {
	w := runtime.GOMAXPROCS(0)
	if limit := (rows + minRowsPerWorker - 1) / minRowsPerWorker; w > limit {
		w = limit
	}
	if w < 1 {
		w = 1
	}
	return w
}

// parallelFor runs body(k) for k in [0, w) on w goroutines and waits.
func parallelFor(w int, body func(k int)) {
	if w == 1 {
		body(0)
		return
	}
	var wg sync.WaitGroup
	wg.Add(w)
	for k := 0; k < w; k++ {
		go func(k int) {
			defer wg.Done()
			body(k)
		}(k)
	}
	wg.Wait()
}

// chunk returns worker k's row range when rows rows split across w
// workers; trailing workers may get an empty range.
func chunk(rows, w, k int) (lo, hi int) {
	size := (rows + w - 1) / w
	lo, hi = k*size, (k+1)*size
	if lo > rows {
		lo = rows
	}
	if hi > rows {
		hi = rows
	}
	return lo, hi
}

// tableHashes computes rowHashTable for every row of t on w goroutines,
// column at a time: each worker keeps one FNV-1a state per row of its range
// and folds the columns into a block of states in turn, so the inner loops
// run over one column's storage with no per-cell dispatch or locking.
func tableHashes(t *dataset.Table, w int) []uint64 {
	rows := t.NumRows()
	h := make([]uint64, rows)
	// One Dict.Values snapshot per nominal column: dictionaries are
	// append-only and t already exists, so every code t holds indexes it.
	vals := make([][]string, len(t.Columns))
	for j, col := range t.Columns {
		if col.Field.Kind == dataset.Nominal {
			vals[j] = col.Dict.Values()
		}
	}
	parallelFor(w, func(k int) {
		lo, hi := chunk(rows, w, k)
		for b := lo; b < hi; b += hashBlock {
			e := b + hashBlock
			if e > hi {
				e = hi
			}
			foldRows(h[b:e], t, vals, b)
		}
	})
	return h
}

// foldRows hashes rows [lo, lo+len(h)) of t into h, starting from the FNV
// offset basis: the per-cell byte stream is exactly hashString's and
// hashNum's, unrolled into one loop per column kind.
func foldRows(h []uint64, t *dataset.Table, vals [][]string, lo int) {
	for i := range h {
		h[i] = fnvOffset64
	}
	for j, col := range t.Columns {
		if col.Field.Kind == dataset.Nominal {
			foldStrings(h, col.Codes[lo:lo+len(h)], vals[j], col.Dict)
		} else {
			foldNums(h, col.Nums[lo:lo+len(h)])
		}
	}
}

// foldNums folds one quantitative cell per state: the tag, then the eight
// IEEE-754 bytes, low byte first.
func foldNums(h []uint64, nums []float64) {
	for i, f := range nums {
		bits := math.Float64bits(f)
		x := (h[i] ^ tagNum) * fnvPrime64
		x = (x ^ bits&0xff) * fnvPrime64
		x = (x ^ bits>>8&0xff) * fnvPrime64
		x = (x ^ bits>>16&0xff) * fnvPrime64
		x = (x ^ bits>>24&0xff) * fnvPrime64
		x = (x ^ bits>>32&0xff) * fnvPrime64
		x = (x ^ bits>>40&0xff) * fnvPrime64
		x = (x ^ bits>>48&0xff) * fnvPrime64
		x = (x ^ bits>>56) * fnvPrime64
		h[i] = x
	}
}

// foldStrings folds one nominal cell per state: the tag, the bytes of the
// code's dictionary string, then the 0x00 terminator (whose XOR is a no-op,
// leaving only the multiply). A code past the snapshot (only a corrupt
// table has one) hashes Dict.Value's marker string, as rowHashTable does.
func foldStrings(h []uint64, codes []uint32, vals []string, d *dataset.Dict) {
	for i, c := range codes {
		var s string
		if int(c) < len(vals) {
			s = vals[c]
		} else {
			s = d.Value(c)
		}
		x := (h[i] ^ tagStr) * fnvPrime64
		for k := 0; k < len(s); k++ {
			x = (x ^ uint64(s[k])) * fnvPrime64
		}
		h[i] = x * fnvPrime64
	}
}

// assignRows returns, for each of n partitions, the physical rows of t that
// hash to it, in ascending order, computed on w goroutines. Each worker
// counts its range's rows per partition; prefix sums over (worker,
// partition) then give every worker a disjoint, order-preserving slot
// range in each partition's row list, which it fills without locks.
func assignRows(t *dataset.Table, n, w int) [][]uint32 {
	rows := t.NumRows()
	h := tableHashes(t, w)
	counts := make([][]int, w)
	parallelFor(w, func(k int) {
		lo, hi := chunk(rows, w, k)
		c := make([]int, n)
		for r := lo; r < hi; r++ {
			p := h[r] % uint64(n)
			h[r] = p // the full hash is no longer needed; keep the partition
			c[p]++
		}
		counts[k] = c
	})
	out := make([][]uint32, n)
	for p := range out {
		size := 0
		for k := range counts {
			off := size
			size += counts[k][p]
			counts[k][p] = off // now worker k's first slot in partition p
		}
		out[p] = make([]uint32, size)
	}
	parallelFor(w, func(k int) {
		lo, hi := chunk(rows, w, k)
		next := counts[k]
		for r := lo; r < hi; r++ {
			p := h[r]
			out[p][next[p]] = uint32(r)
			next[p]++
		}
	})
	return out
}

// materializeParts builds one database per row list, on up to GOMAXPROCS
// goroutines, one partition at a time per goroutine.
func materializeParts(db *dataset.Database, rows [][]uint32) ([]*dataset.Database, error) {
	out := make([]*dataset.Database, len(rows))
	errs := make([]error, len(rows))
	w := runtime.GOMAXPROCS(0)
	if w > len(rows) {
		w = len(rows)
	}
	parallelFor(w, func(k int) {
		for i := k; i < len(rows); i += w {
			t, err := dataset.SelectRows(db.Fact, rows[i])
			if err != nil {
				errs[i] = fmt.Errorf("shard: materialize partition: %w", err)
				continue
			}
			out[i] = &dataset.Database{Fact: t, Dimensions: db.Dimensions}
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// RouteBatch splits one ingest batch into n per-shard sub-batches by row
// hash. Sub-batches keep the parent's table name and sequence number; a
// shard whose slice of the batch is empty gets a zero-row sub-batch (never
// nil) so callers can still advance that shard's watermark bookkeeping.
func RouteBatch(b *ingest.Batch, n int) ([]*ingest.Batch, error) {
	if n <= 0 {
		return nil, fmt.Errorf("shard: route across %d shards, want >= 1", n)
	}
	out := make([]*ingest.Batch, n)
	for i := range out {
		out[i] = &ingest.Batch{Table: b.Table, Seq: b.Seq}
	}
	for _, row := range b.Rows {
		i := HomeShard(row, n)
		out[i].Rows = append(out[i].Rows, row)
	}
	return out, nil
}
