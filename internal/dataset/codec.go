package dataset

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Stable binary serialization of tables — the storage layer of the durable
// checkpoint format (internal/durable). The encoding is versioned, fully
// self-contained (each nominal column carries its dictionary contents), and
// deterministic: encoding the same logical table twice yields byte-identical
// output, because every variable-order structure is serialized in a canonical
// order — schema fields in schema order, dictionary values in code order
// (Dict.Values' documented enumeration order). Shared append-only
// dictionaries are pinned to the prefix the encoded view's codes reference,
// so the bytes depend only on the view, never on how far concurrent ingest
// has grown the live dictionary since the view was taken. Checkpoint
// checksums and the byte-identity determinism test rely on this.
//
// Layout (all integers little-endian):
//
//	magic "IDBT1\x00"
//	u16 len | table name
//	u32 field count
//	per field: u8 kind | u16 len | field name
//	u64 row count
//	per column, in schema order:
//	  quantitative: u8 boundsOK | f64 lo | f64 hi | rows × f64 (IEEE-754 bits)
//	  nominal:      u32 dict len | per value (u32 len | bytes) | rows × u32 codes
//
// Quantitative columns persist their memoized min/max bounds so a decoded
// table skips the O(n) warm-up pass NewTable would otherwise pay — the whole
// point of a warm restart is to not redo per-row work.

// tableMagic frames one serialized table; the trailing byte versions the
// format, so a future layout change bumps the magic rather than guessing.
var tableMagic = []byte("IDBT1\x00")

// maxDecodeElems bounds any single length field read while decoding, so a
// corrupt or adversarial header cannot ask for a multi-terabyte allocation
// before the per-element bounds checks run.
const maxDecodeElems = 1 << 32

// EncodeTable serializes t into the stable checkpoint format.
func EncodeTable(t *Table) []byte {
	e := NewTableEncoder(t)
	buf := make([]byte, e.Size())
	_, _ = e.Read(buf) // a Read into exactly Size bytes fills them all
	return buf
}

// TableEncoder streams EncodeTable's bytes through caller-supplied buffers,
// so a checkpoint writer can push a table of any size through a few reused
// chunks instead of materializing the whole encoding. Every Read fills p
// completely until the encoding runs out; values and dictionary entries that
// straddle two Reads are split byte-exactly. The table must not change while
// it is being encoded (table views never do).
type TableEncoder struct {
	t    *Table
	size int64
	// dicts holds each nominal column's dictionary pinned to the prefix its
	// codes reference (see NewTableEncoder); nil for quantitative columns.
	dicts [][]string

	col     int  // column being emitted; len(t.Columns) once done
	started bool // the current column's prologue has been emitted
	dict    int  // next dictionary entry of the current column
	row     int  // next row of the current column

	pend []byte // bytes owed before anything else: a header piece or a split value
	buf  []byte // backing store pend reuses
}

// NewTableEncoder returns an encoder positioned at the start of t's
// encoding. It pays one pass over each nominal column's codes to pin its
// dictionary, and memoizes quantitative bounds (MinMax), up front.
func NewTableEncoder(t *Table) *TableEncoder {
	e := &TableEncoder{t: t, dicts: make([][]string, len(t.Columns))}
	e.buf = append(e.buf, tableMagic...)
	e.buf = appendString16(e.buf, t.Name)
	e.buf = binary.LittleEndian.AppendUint32(e.buf, uint32(t.Schema.Len()))
	for _, f := range t.Schema.Fields {
		e.buf = append(e.buf, byte(f.Kind))
		e.buf = appendString16(e.buf, f.Name)
	}
	e.buf = binary.LittleEndian.AppendUint64(e.buf, uint64(t.NumRows()))
	e.pend = e.buf
	e.size = int64(len(e.buf))
	for i, c := range t.Columns {
		if c.Field.Kind == Nominal {
			// Pin the serialized dictionary to the prefix the snapshotted
			// codes actually reference. The dictionary is shared and
			// append-only across the COW lineage, so by encode time it may
			// already hold values interned by batches newer than this view's
			// watermark; writing Dict.Values() wholesale would make the
			// checkpoint bytes depend on concurrent ingest progress rather
			// than on the view alone. The prefix is exactly the dictionary as
			// it stood when the view's last row was appended: interning
			// happens row-by-row, so every code < maxRef+1 was assigned at or
			// before the row that references maxRef.
			dictLen := uint32(0)
			for _, code := range c.Codes {
				if code+1 > dictLen {
					dictLen = code + 1
				}
			}
			e.dicts[i] = c.Dict.Values()[:dictLen]
			e.size += 4 + 4*int64(len(c.Codes))
			for _, v := range e.dicts[i] {
				e.size += 4 + int64(len(v))
			}
		} else {
			// MinMax (not the raw memo fields) keeps the encoding
			// deterministic regardless of whether a caller already warmed
			// the bounds: it computes them on first use.
			c.MinMax()
			e.size += 17 + 8*int64(len(c.Nums))
		}
	}
	return e
}

// Size returns the total length of the encoding.
func (e *TableEncoder) Size() int64 { return e.size }

// Read implements io.Reader. It returns len(p) bytes until the encoding
// runs out, then the remainder, then 0 and io.EOF.
func (e *TableEncoder) Read(p []byte) (int, error) {
	n := 0
	for n < len(p) {
		if len(e.pend) > 0 {
			k := copy(p[n:], e.pend)
			e.pend = e.pend[k:]
			n += k
			continue
		}
		if e.col == len(e.t.Columns) {
			if n == 0 {
				return 0, io.EOF
			}
			break
		}
		n += e.step(p[n:])
	}
	return n, nil
}

// step advances the current column. It writes whole row values straight
// into dst and returns their byte count, or queues the next small piece
// (prologue, dictionary entry, or a row value too wide for dst) in e.pend
// and returns 0.
func (e *TableEncoder) step(dst []byte) int {
	c := e.t.Columns[e.col]
	nominal := c.Field.Kind == Nominal
	switch {
	case !e.started:
		e.started = true
		if nominal {
			e.queue(binary.LittleEndian.AppendUint32(e.buf[:0], uint32(len(e.dicts[e.col]))))
		} else {
			lo, hi, ok := c.MinMax()
			b := append(e.buf[:0], 0)
			if ok {
				b[0] = 1
			}
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(lo))
			e.queue(binary.LittleEndian.AppendUint64(b, math.Float64bits(hi)))
		}
	case nominal && e.dict < len(e.dicts[e.col]):
		v := e.dicts[e.col][e.dict]
		e.dict++
		e.queue(append(binary.LittleEndian.AppendUint32(e.buf[:0], uint32(len(v))), v...))
	case nominal && e.row < len(c.Codes):
		codes := c.Codes[e.row:]
		k := min(len(dst)/4, len(codes))
		if k == 0 {
			e.row++
			e.queue(binary.LittleEndian.AppendUint32(e.buf[:0], codes[0]))
			return 0
		}
		for i, code := range codes[:k] {
			binary.LittleEndian.PutUint32(dst[4*i:], code)
		}
		e.row += k
		return 4 * k
	case !nominal && e.row < len(c.Nums):
		nums := c.Nums[e.row:]
		k := min(len(dst)/8, len(nums))
		if k == 0 {
			e.row++
			e.queue(binary.LittleEndian.AppendUint64(e.buf[:0], math.Float64bits(nums[0])))
			return 0
		}
		for i, v := range nums[:k] {
			binary.LittleEndian.PutUint64(dst[8*i:], math.Float64bits(v))
		}
		e.row += k
		return 8 * k
	default:
		e.col++
		e.started, e.dict, e.row = false, 0, 0
	}
	return 0
}

// queue makes b (built in e.buf) the pending piece, keeping its backing
// array for the next one.
func (e *TableEncoder) queue(b []byte) {
	e.buf, e.pend = b, b
}

// DecodeTable reconstructs a table from EncodeTable output. It never
// panics on corrupt input: every length is bounds-checked against the
// remaining data and every dictionary code against its dictionary, so a
// bit-flipped checkpoint segment surfaces as an error, not a crash.
func DecodeTable(data []byte) (*Table, error) {
	r := &byteReader{data: data}
	if !r.magic(tableMagic) {
		return nil, fmt.Errorf("dataset: decode table: bad magic")
	}
	name := r.string16()
	nFields := int(r.u32())
	if r.err == nil && nFields > maxDecodeElems {
		return nil, fmt.Errorf("dataset: decode table %q: implausible field count %d", name, nFields)
	}
	fields := make([]Field, 0, min(nFields, 1024))
	for i := 0; i < nFields && r.err == nil; i++ {
		k := Kind(r.u8())
		fn := r.string16()
		if k != Quantitative && k != Nominal {
			return nil, fmt.Errorf("dataset: decode table %q: field %q: unknown kind %d", name, fn, k)
		}
		fields = append(fields, Field{Name: fn, Kind: k})
	}
	rows64 := r.u64()
	if r.err != nil {
		return nil, fmt.Errorf("dataset: decode table %q: %w", name, r.err)
	}
	if rows64 > maxDecodeElems {
		return nil, fmt.Errorf("dataset: decode table %q: implausible row count %d", name, rows64)
	}
	rows := int(rows64)
	schema, err := NewSchema(fields)
	if err != nil {
		return nil, fmt.Errorf("dataset: decode table %q: %w", name, err)
	}
	cols := make([]*Column, 0, len(fields))
	for _, f := range fields {
		c := &Column{Field: f}
		if f.Kind == Nominal {
			dictLen := int(r.u32())
			if r.err == nil && int64(dictLen)*4 > int64(r.remaining()) {
				return nil, fmt.Errorf("dataset: decode table %q: column %q: truncated dictionary", name, f.Name)
			}
			d := NewDict()
			for j := 0; j < dictLen && r.err == nil; j++ {
				v := r.string32()
				if r.err != nil {
					break
				}
				if _, dup := d.Lookup(v); dup {
					return nil, fmt.Errorf("dataset: decode table %q: column %q: duplicate dictionary value %q", name, f.Name, v)
				}
				d.Code(v)
			}
			c.Dict = d
			c.Codes = make([]uint32, 0, min(rows, r.remaining()/4))
			for j := 0; j < rows && r.err == nil; j++ {
				code := r.u32()
				if r.err == nil && int(code) >= dictLen {
					return nil, fmt.Errorf("dataset: decode table %q: column %q: code %d out of range (dict len %d)", name, f.Name, code, dictLen)
				}
				c.Codes = append(c.Codes, code)
			}
		} else {
			ok := r.u8() != 0
			lo := math.Float64frombits(r.u64())
			hi := math.Float64frombits(r.u64())
			c.Nums = make([]float64, 0, min(rows, r.remaining()/8))
			for j := 0; j < rows && r.err == nil; j++ {
				c.Nums = append(c.Nums, math.Float64frombits(r.u64()))
			}
			if r.err == nil {
				c.seedMinMax(lo, hi, ok)
			}
		}
		if r.err != nil {
			return nil, fmt.Errorf("dataset: decode table %q: column %q: %w", name, f.Name, r.err)
		}
		cols = append(cols, c)
	}
	if r.remaining() != 0 {
		return nil, fmt.Errorf("dataset: decode table %q: %d trailing bytes", name, r.remaining())
	}
	t, err := NewTable(name, schema, cols)
	if err != nil {
		return nil, fmt.Errorf("dataset: decode table: %w", err)
	}
	return t, nil
}

func appendString16(buf []byte, s string) []byte {
	if len(s) > math.MaxUint16 {
		s = s[:math.MaxUint16] // names never approach this; guard anyway
	}
	buf = binary.LittleEndian.AppendUint16(buf, uint16(len(s)))
	return append(buf, s...)
}

// byteReader is a bounds-checked cursor with latching errors: after the
// first out-of-range read every later read returns zero values, and the
// caller checks err once per column rather than per field.
type byteReader struct {
	data []byte
	off  int
	err  error
}

var errTruncated = fmt.Errorf("truncated input")

func (r *byteReader) remaining() int { return len(r.data) - r.off }

func (r *byteReader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || r.remaining() < n {
		r.err = errTruncated
		return nil
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b
}

func (r *byteReader) magic(want []byte) bool {
	b := r.take(len(want))
	if r.err != nil {
		return false
	}
	return string(b) == string(want)
}

func (r *byteReader) u8() byte {
	b := r.take(1)
	if r.err != nil {
		return 0
	}
	return b[0]
}

func (r *byteReader) u16() uint16 {
	b := r.take(2)
	if r.err != nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

func (r *byteReader) u32() uint32 {
	b := r.take(4)
	if r.err != nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *byteReader) u64() uint64 {
	b := r.take(8)
	if r.err != nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (r *byteReader) string16() string {
	n := int(r.u16())
	return string(r.take(n))
}

func (r *byteReader) string32() string {
	n := r.u32()
	if r.err == nil && int64(n) > int64(r.remaining()) {
		r.err = errTruncated
		return ""
	}
	return string(r.take(int(n)))
}
