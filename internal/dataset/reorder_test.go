package dataset

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

func reorderFixture(t *testing.T, n int) *Table {
	t.Helper()
	schema := MustSchema([]Field{
		{Name: "cat", Kind: Nominal},
		{Name: "val", Kind: Quantitative},
	})
	b := NewBuilder("fix", schema, n)
	cats := []string{"x", "y", "z"}
	for i := 0; i < n; i++ {
		b.AppendString(0, cats[i%len(cats)])
		b.AppendNum(1, float64(i)*1.5-10)
	}
	tbl, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func randPerm(rng *rand.Rand, n int) []uint32 {
	perm := make([]uint32, n)
	for i, p := range rng.Perm(n) {
		perm[i] = uint32(p)
	}
	return perm
}

func TestReorderTableRowsMatchPermutation(t *testing.T) {
	tbl := reorderFixture(t, 1000)
	perm := randPerm(rand.New(rand.NewSource(3)), 1000)
	re, err := ReorderTable(tbl, perm)
	if err != nil {
		t.Fatal(err)
	}
	if re.NumRows() != tbl.NumRows() {
		t.Fatalf("row count %d, want %d", re.NumRows(), tbl.NumRows())
	}
	cat, val := tbl.Column("cat"), tbl.Column("val")
	rcat, rval := re.Column("cat"), re.Column("val")
	if rcat.Dict != cat.Dict {
		t.Error("reordered nominal column must share the parent dictionary")
	}
	for i, p := range perm {
		if rcat.Codes[i] != cat.Codes[p] || rval.Nums[i] != val.Nums[p] {
			t.Fatalf("row %d does not match source row %d", i, p)
		}
	}
}

func TestReorderTableCarriesMinMax(t *testing.T) {
	tbl := reorderFixture(t, 500)
	lo, hi, ok := tbl.Column("val").MinMax()
	if !ok {
		t.Fatal("fixture bounds should be known")
	}
	perm := randPerm(rand.New(rand.NewSource(5)), 500)
	re, err := ReorderTable(tbl, perm)
	if err != nil {
		t.Fatal(err)
	}
	rlo, rhi, rok := re.Column("val").MinMax()
	if !rok || rlo != lo || rhi != hi {
		t.Errorf("bounds (%v,%v,%v), want (%v,%v,true)", rlo, rhi, rok, lo, hi)
	}
}

func TestReorderTableRejectsBadPermutations(t *testing.T) {
	tbl := reorderFixture(t, 10)
	for name, perm := range map[string][]uint32{
		"short":       make([]uint32, 5),
		"duplicate":   {0, 1, 2, 3, 4, 5, 6, 7, 8, 8},
		"outOfRange":  {0, 1, 2, 3, 4, 5, 6, 7, 8, 10},
		"allSameZero": make([]uint32, 10),
	} {
		if _, err := ReorderTable(tbl, perm); err == nil {
			t.Errorf("%s: invalid permutation accepted", name)
		}
	}
	// Identity must round-trip.
	id := make([]uint32, 10)
	for i := range id {
		id[i] = uint32(i)
	}
	re, err := ReorderTable(tbl, id)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if re.Column("val").Nums[i] != tbl.Column("val").Nums[i] {
			t.Fatal("identity reorder changed data")
		}
	}
}

func TestReorderFactKeepsDimensionJoins(t *testing.T) {
	dimSchema := MustSchema([]Field{{Name: "name", Kind: Nominal}})
	db2 := NewBuilder("dim", dimSchema, 3)
	for _, s := range []string{"a", "b", "c"} {
		db2.AppendString(0, s)
	}
	dim, err := db2.Build()
	if err != nil {
		t.Fatal(err)
	}
	factSchema := MustSchema([]Field{
		{Name: "fk", Kind: Quantitative},
		{Name: "v", Kind: Quantitative},
	})
	fb := NewBuilder("fact", factSchema, 30)
	for i := 0; i < 30; i++ {
		fb.AppendNum(0, float64(i%3))
		fb.AppendNum(1, float64(i))
	}
	fact, err := fb.Build()
	if err != nil {
		t.Fatal(err)
	}
	db := &Database{Fact: fact, Dimensions: []*Dimension{{Table: dim, FKColumn: "fk"}}}

	perm := randPerm(rand.New(rand.NewSource(9)), 30)
	re, err := db.ReorderFact(perm)
	if err != nil {
		t.Fatal(err)
	}
	if re.Dimensions[0].Table != dim {
		t.Error("dimension tables must be shared, not copied")
	}
	// The FK of reordered row i must still name the dimension row the source
	// row pointed at: v == i and fk == i%3 in the fixture ties them together.
	fkCol, vCol := re.Fact.Column("fk"), re.Fact.Column("v")
	for i := 0; i < 30; i++ {
		if fkCol.Nums[i] != float64(int(vCol.Nums[i])%3) {
			t.Fatalf("row %d: fk %v does not match carried value %v", i, fkCol.Nums[i], vCol.Nums[i])
		}
	}
}

// reorderSerial is the one-goroutine, column-after-column gather that the
// parallel ReorderTable must reproduce bit for bit.
func reorderSerial(t *testing.T, tb *Table, perm []uint32) *Table {
	t.Helper()
	cols := make([]*Column, len(tb.Columns))
	for i, c := range tb.Columns {
		nc := &Column{Field: c.Field, Dict: c.Dict}
		if c.Field.Kind == Nominal {
			nc.Codes = make([]uint32, len(perm))
			for j, p := range perm {
				nc.Codes[j] = c.Codes[p]
			}
		} else {
			nc.Nums = make([]float64, len(perm))
			for j, p := range perm {
				nc.Nums[j] = c.Nums[p]
			}
			lo, hi, ok := c.MinMax()
			nc.seedMinMax(lo, hi, ok)
		}
		cols[i] = nc
	}
	out, err := NewTable(tb.Name, tb.Schema, cols)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// wideReorderFixture is a 12-column table big enough that ReorderTable
// runs one worker per GOMAXPROCS up to 8: nominal columns, quantitative
// columns with NaN, ±Inf and −0 (one whose carried-over lower bound is −0),
// and one column whose bounds memo was dropped before the reorder.
func wideReorderFixture(t *testing.T, rows int) *Table {
	t.Helper()
	var fields []Field
	for i := 0; i < 12; i++ {
		kind := Quantitative
		if i%3 == 0 {
			kind = Nominal
		}
		fields = append(fields, Field{Name: string(rune('a' + i)), Kind: kind})
	}
	rng := rand.New(rand.NewSource(12))
	b := NewBuilder("wide", MustSchema(fields), rows)
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1)}
	names := make([]string, 600)
	for i := range names {
		names[i] = fmt.Sprintf("v%d", i)
	}
	for r := 0; r < rows; r++ {
		for i, f := range fields {
			switch {
			case f.Kind == Nominal:
				b.AppendString(i, names[rng.Intn(50*(i+1))])
			case i == 4 && r%1000 == 7:
				b.AppendNum(i, specials[rng.Intn(len(specials))])
			case i == 5 && r == rows/2:
				b.AppendNum(i, math.Inf(-1))
			case i == 10 && r == 0:
				// The source's bounds start at −0; a recomputation over the
				// reordered rows would meet a +0 first and differ in sign.
				b.AppendNum(i, math.Copysign(0, -1))
			case i == 10:
				b.AppendNum(i, float64(r%7))
			default:
				b.AppendNum(i, rng.NormFloat64()*float64(i))
			}
		}
	}
	tb, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	tb.Columns[7].InvalidateMinMax()
	return tb
}

func TestReorderTableParallelMatchesSerial(t *testing.T) {
	const rows = 200_000
	tb := wideReorderFixture(t, rows)
	perm := randPerm(rand.New(rand.NewSource(13)), rows)
	want := reorderSerial(t, tb, perm)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		if w := reorderWorkers(rows, len(tb.Columns)); w != procs {
			t.Fatalf("GOMAXPROCS %d: %d reorder workers, want %d", procs, w, procs)
		}
		tb.Columns[7].InvalidateMinMax()
		got, err := ReorderTable(tb, perm)
		if err != nil {
			t.Fatal(err)
		}
		for i, gc := range got.Columns {
			wc := want.Columns[i]
			if gc.Field != wc.Field || gc.Dict != wc.Dict {
				t.Fatalf("GOMAXPROCS %d column %d: field or dictionary differs", procs, i)
			}
			for j := range wc.Codes {
				if gc.Codes[j] != wc.Codes[j] {
					t.Fatalf("GOMAXPROCS %d column %d row %d: code %d, want %d", procs, i, j, gc.Codes[j], wc.Codes[j])
				}
			}
			if len(gc.Nums) != len(wc.Nums) {
				t.Fatalf("GOMAXPROCS %d column %d: %d values, want %d", procs, i, len(gc.Nums), len(wc.Nums))
			}
			for j := range wc.Nums {
				if math.Float64bits(gc.Nums[j]) != math.Float64bits(wc.Nums[j]) {
					t.Fatalf("GOMAXPROCS %d column %d row %d: %v, want %v", procs, i, j, gc.Nums[j], wc.Nums[j])
				}
			}
			if gc.mmDone != wc.mmDone || gc.mmOK != wc.mmOK ||
				math.Float64bits(gc.mmLo) != math.Float64bits(wc.mmLo) ||
				math.Float64bits(gc.mmHi) != math.Float64bits(wc.mmHi) {
				t.Fatalf("GOMAXPROCS %d column %d: bounds memo (%v %v %v %v), want (%v %v %v %v)", procs, i,
					gc.mmDone, gc.mmLo, gc.mmHi, gc.mmOK, wc.mmDone, wc.mmLo, wc.mmHi, wc.mmOK)
			}
		}
	}
}

func TestReorderWorkersSmallTablesStaySerial(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	runtime.GOMAXPROCS(8)
	for _, c := range []struct{ rows, cols, want int }{
		{0, 5, 1}, {1000, 14, 1}, {minCellsPerWorker, 1, 1}, {minCellsPerWorker, 2, 2},
		{minCellsPerWorker, 3, 3}, {1 << 20, 3, 3}, {1 << 20, 14, 8}, {10, 0, 1},
	} {
		if got := reorderWorkers(c.rows, c.cols); got != c.want {
			t.Errorf("reorderWorkers(%d, %d) = %d, want %d", c.rows, c.cols, got, c.want)
		}
	}
}
