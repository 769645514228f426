package dataset

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// encodeTableReference is the one-shot, append-into-one-buffer encoder the
// streaming TableEncoder replaced, kept verbatim as the oracle: the stream
// must reproduce its bytes exactly, or every checkpoint's content digest
// would change.
func encodeTableReference(t *Table) []byte {
	var buf []byte
	buf = append(buf, tableMagic...)
	buf = appendString16(buf, t.Name)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(t.Schema.Len()))
	for _, f := range t.Schema.Fields {
		buf = append(buf, byte(f.Kind))
		buf = appendString16(buf, f.Name)
	}
	buf = binary.LittleEndian.AppendUint64(buf, uint64(t.NumRows()))
	for _, c := range t.Columns {
		if c.Field.Kind == Nominal {
			values := c.Dict.Values()
			dictLen := uint32(0)
			for _, code := range c.Codes {
				if code+1 > dictLen {
					dictLen = code + 1
				}
			}
			values = values[:dictLen]
			buf = binary.LittleEndian.AppendUint32(buf, dictLen)
			for _, v := range values {
				buf = binary.LittleEndian.AppendUint32(buf, uint32(len(v)))
				buf = append(buf, v...)
			}
			for _, code := range c.Codes {
				buf = binary.LittleEndian.AppendUint32(buf, code)
			}
		} else {
			lo, hi, ok := c.MinMax()
			if ok {
				buf = append(buf, 1)
			} else {
				buf = append(buf, 0)
			}
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(lo))
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(hi))
			for _, v := range c.Nums {
				buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
			}
		}
	}
	return buf
}

// streamTable drains a fresh TableEncoder through one reused chunk-byte
// buffer, checking the io.Reader contract on the way: every Read but the
// last fills the buffer, and the end is a single (0, io.EOF).
func streamTable(t *testing.T, tb *Table, chunk int) []byte {
	t.Helper()
	e := NewTableEncoder(tb)
	buf := make([]byte, chunk)
	var out []byte
	short := false
	for {
		n, err := e.Read(buf)
		if errors.Is(err, io.EOF) {
			if n != 0 {
				t.Fatalf("chunk %d: EOF with %d bytes", chunk, n)
			}
			break
		}
		if err != nil {
			t.Fatalf("chunk %d: %v", chunk, err)
		}
		if short {
			t.Fatalf("chunk %d: a short Read was followed by more data", chunk)
		}
		short = n < chunk
		out = append(out, buf[:n]...)
	}
	if int64(len(out)) != e.Size() {
		t.Fatalf("chunk %d: streamed %d bytes, Size says %d", chunk, len(out), e.Size())
	}
	return out
}

// encoderFixture builds a table whose encoding exercises every piece the
// stream can split: several nominal and quantitative columns, dictionary
// strings of 0 to 40 bytes (some with odd lengths and NUL bytes), NaN,
// ±Inf, −0 and a NaN payload in a quantitative column, and a dictionary
// that grew past the codes the view references.
func encoderFixture(t *testing.T, rows int, seed int64) *Table {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	schema := MustSchema([]Field{
		{Name: "origin", Kind: Nominal},
		{Name: "delay", Kind: Quantitative},
		{Name: "carrier-with-a-long-name", Kind: Nominal},
		{Name: "odd", Kind: Quantitative},
	})
	b := NewBuilder("flights", schema, rows)
	words := make([]string, 37)
	for i := range words {
		words[i] = strings.Repeat(string(rune('a'+i%26)), i+i%3) + string([]byte{0, byte(i)})[:i%2]
	}
	odd := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0,
		math.Float64frombits(0x7ff8_dead_beef_0001), 1e308, -5e-324}
	for i := 0; i < rows; i++ {
		b.AppendString(0, words[rng.Intn(len(words))])
		b.AppendNum(1, rng.NormFloat64()*30)
		b.AppendString(2, words[(i*7)%5])
		b.AppendNum(3, odd[rng.Intn(len(odd))])
	}
	tb, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	// Values interned after the view: the stream must pin the same prefix
	// the reference does.
	tb.Column("carrier-with-a-long-name").Dict.Code("interned-after-the-view")
	return tb
}

func TestTableEncoderMatchesReference(t *testing.T) {
	emptySchema := MustSchema([]Field{{Name: "n", Kind: Nominal}, {Name: "q", Kind: Quantitative}})
	empty, err := NewBuilder("empty", emptySchema, 0).Build()
	if err != nil {
		t.Fatal(err)
	}
	noCols, err := NewTable("no-columns", MustSchema(nil), nil)
	if err != nil {
		t.Fatal(err)
	}
	tables := map[string]*Table{
		"empty":      empty,
		"no-columns": noCols,
		"one-row":    encoderFixture(t, 1, 1),
		"small":      encoderFixture(t, 97, 2),
		"large":      encoderFixture(t, 300_000, 3),
		"codec":      codecTestTable(t),
	}
	for name, tb := range tables {
		want := encodeTableReference(tb)
		if got := EncodeTable(tb); !bytes.Equal(got, want) {
			t.Fatalf("%s: EncodeTable differs from the reference encoding", name)
		}
		if got := EncodeTable(tb); len(got) != cap(got) {
			t.Fatalf("%s: EncodeTable not exactly presized: len %d cap %d", name, len(got), cap(got))
		}
		for _, chunk := range []int{1, 7, 4096, 1 << 20} {
			if name == "large" && chunk < 4096 {
				continue // byte-at-a-time over 12 MB adds time, not coverage
			}
			if got := streamTable(t, tb, chunk); !bytes.Equal(got, want) {
				t.Fatalf("%s: stream at chunk %d differs from the reference encoding", name, chunk)
			}
		}
	}
}

// TestTableEncoderStraddlesDictionaryEntries places chunk boundaries at
// every offset inside the dictionary section: each entry (length prefix
// and string) must split byte-exactly.
func TestTableEncoderStraddlesDictionaryEntries(t *testing.T) {
	tb := encoderFixture(t, 40, 4)
	want := encodeTableReference(tb)
	for chunk := 1; chunk <= 64; chunk++ {
		if got := streamTable(t, tb, chunk); !bytes.Equal(got, want) {
			t.Fatalf("chunk %d: stream differs from the reference encoding", chunk)
		}
	}
}

// TestTableEncoderMixedReads drains one encoder with Reads of varying
// sizes, as an io.Reader consumer may.
func TestTableEncoderMixedReads(t *testing.T) {
	tb := encoderFixture(t, 5000, 5)
	want := encodeTableReference(tb)
	e := NewTableEncoder(tb)
	rng := rand.New(rand.NewSource(6))
	var got []byte
	for {
		p := make([]byte, rng.Intn(300))
		n, err := e.Read(p)
		got = append(got, p[:n]...)
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if !bytes.Equal(got, want) {
		t.Fatal("mixed-size reads differ from the reference encoding")
	}
}
