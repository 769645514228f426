package durable

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"idebench/internal/dataset"
)

// FormatVersion is bumped whenever the checkpoint layout or the segment
// encoding changes incompatibly; loaders refuse other versions.
const FormatVersion = 1

// manifestName is the file written last inside a checkpoint directory — a
// directory without it is not a checkpoint.
const manifestName = "MANIFEST.json"

// File roles inside a checkpoint.
const (
	roleFact = "fact"
	roleDim  = "dimension"
	rolePerm = "permutation"
)

// ManifestFile describes one checkpoint segment.
type ManifestFile struct {
	Name  string `json:"name"`
	Role  string `json:"role"`
	Bytes int64  `json:"bytes"`
	CRC32 uint32 `json:"crc32"`
	// FKColumn is the fact-side foreign-key column for dimension segments.
	FKColumn string `json:"fk_column,omitempty"`
}

// Manifest is a checkpoint's self-description, written last and fsynced;
// its presence commits the checkpoint.
type Manifest struct {
	Format   int    `json:"format"`
	Engine   string `json:"engine"`
	Seed     int64  `json:"seed"`
	BaseRows int64  `json:"base_rows"`
	// Version is the fact-table row count — the data version / watermark
	// this checkpoint captures.
	Version int64          `json:"version"`
	Files   []ManifestFile `json:"files"`
	// ContentSHA256 digests every file's contents in Files order: the
	// whole-checkpoint identity the determinism test and the offline
	// inspector use.
	ContentSHA256 string `json:"content_sha256"`
}

// Checkpoint is a loaded, verified checkpoint.
type Checkpoint struct {
	Manifest Manifest
	DB       *dataset.Database
	// Perm is the sampling permutation the fact prefix is stored in; nil
	// for arrival-order engines.
	Perm []uint32
}

// Version returns the data version the checkpoint captures.
func (c *Checkpoint) Version() int64 { return c.Manifest.Version }

func checkpointDirName(v int64) string { return fmt.Sprintf("ckpt-%016d", v) }

func parseCheckpointDirName(name string) (int64, bool) {
	if !strings.HasPrefix(name, "ckpt-") {
		return 0, false
	}
	v, err := strconv.ParseInt(strings.TrimPrefix(name, "ckpt-"), 10, 64)
	if err != nil || v < 0 {
		return 0, false
	}
	return v, true
}

// permMagic frames the serialized sampling permutation.
var permMagic = []byte("IDBP1\x00")

func encodePerm(perm []uint32) []byte {
	buf := make([]byte, 0, len(permMagic)+8+4*len(perm))
	buf = append(buf, permMagic...)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(len(perm)))
	for _, p := range perm {
		buf = binary.LittleEndian.AppendUint32(buf, p)
	}
	return buf
}

func decodePerm(data []byte) ([]uint32, error) {
	r := len(permMagic)
	if len(data) < r+8 || string(data[:r]) != string(permMagic) {
		return nil, fmt.Errorf("durable: permutation segment: bad header")
	}
	n := binary.LittleEndian.Uint64(data[r:])
	if uint64(len(data)-r-8) != n*4 {
		return nil, fmt.Errorf("durable: permutation segment: %d entries for %d payload bytes", n, len(data)-r-8)
	}
	perm := make([]uint32, n)
	for i := range perm {
		perm[i] = binary.LittleEndian.Uint32(data[r+8+4*i:])
	}
	return perm, nil
}

// writeCheckpoint writes one checkpoint atomically under root
// (<data-dir>/checkpoints) and returns the total segment bytes. Sequence:
// segments into a .tmp- directory, each fsynced; manifest last, fsynced;
// directory rename; parent fsync. Any failure removes the temp directory
// and leaves previously committed checkpoints untouched.
func writeCheckpoint(fs FS, root string, meta Meta, db *dataset.Database, perm []uint32) (int64, error) {
	version := int64(db.Fact.NumRows())
	tmp := filepath.Join(root, fmt.Sprintf(".tmp-%016d", version))
	final := filepath.Join(root, checkpointDirName(version))
	_ = fs.RemoveAll(tmp) // clobber litter from a crashed writer
	if err := fs.MkdirAll(tmp); err != nil {
		return 0, fmt.Errorf("durable: checkpoint: %w", err)
	}
	fail := func(err error) (int64, error) {
		_ = fs.RemoveAll(tmp)
		return 0, fmt.Errorf("durable: checkpoint: %w", err)
	}

	segs := []segment{{name: "fact.seg", role: roleFact, r: dataset.NewTableEncoder(db.Fact)}}
	for i, d := range db.Dimensions {
		segs = append(segs, segment{name: fmt.Sprintf("dim-%02d.seg", i), role: roleDim,
			fk: d.FKColumn, r: dataset.NewTableEncoder(d.Table)})
	}
	if len(perm) > 0 {
		segs = append(segs, segment{name: "perm.seg", role: rolePerm, r: bytes.NewReader(encodePerm(perm))})
	}
	files, digest, err := writeSegments(fs, tmp, segs)
	if err != nil {
		return fail(err)
	}
	m := Manifest{
		Format:        FormatVersion,
		Engine:        meta.Engine,
		Seed:          meta.Seed,
		BaseRows:      meta.BaseRows,
		Version:       version,
		Files:         files,
		ContentSHA256: hex.EncodeToString(digest),
	}
	var total int64
	for _, f := range files {
		total += f.Bytes
	}

	mf, err := json.MarshalIndent(&m, "", "  ")
	if err != nil {
		return fail(err)
	}
	f, err := fs.Create(filepath.Join(tmp, manifestName))
	if err != nil {
		return fail(err)
	}
	if _, err := f.Write(append(mf, '\n')); err != nil {
		_ = f.Close()
		return fail(err)
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		return fail(err)
	}
	if err := f.Close(); err != nil {
		return fail(err)
	}
	if err := fs.SyncDir(tmp); err != nil {
		return fail(err)
	}
	if err := fs.Rename(tmp, final); err != nil {
		return fail(err)
	}
	if err := fs.SyncDir(root); err != nil {
		return 0, fmt.Errorf("durable: checkpoint: %w", err)
	}
	return total, nil
}

// segment is one checkpoint file: its manifest identity and its bytes.
type segment struct {
	name, role, fk string
	r              io.Reader
}

// The segment pipeline's buffers. pipeBufs bounds memory (pipeBufs ×
// pipeChunk) and how far the encoder and writer may run ahead of the
// digest; the writer's fsync of a segment overlaps the digest of its last
// pipeBufs chunks.
const (
	pipeChunk = 1 << 20
	pipeBufs  = 16
)

// segChunk is one filled buffer of segment seg, or (buf == nil) the end of
// that segment.
type segChunk struct {
	seg int
	buf []byte
}

// writeSegments streams segs, in order, into files in dir and returns their
// manifest entries and the SHA-256 over all their bytes. Three stages run
// at once over pipeBufs reused buffers: this goroutine encodes; a writer
// computes each file's CRC, writes it, and fsyncs and closes it as soon as
// its last chunk is written; a hasher feeds the content digest and hands
// the buffers back. The bytes, their order and the per-file sync are those
// of writing each segment whole. On error nothing is returned and both
// goroutines have exited; the caller removes dir.
func writeSegments(fs FS, dir string, segs []segment) ([]ManifestFile, []byte, error) {
	// Buffers are made on demand, up to pipeBufs, so a small checkpoint
	// allocates only what it streams; the hasher hands each one back.
	free := make(chan []byte, pipeBufs)
	made := 0
	take := func() []byte {
		select {
		case b := <-free:
			return b
		default:
		}
		if made < pipeBufs {
			made++
			return make([]byte, pipeChunk)
		}
		return <-free
	}
	// Sized to every send the producer can make, so it blocks only on free.
	toWrite := make(chan segChunk, pipeBufs+len(segs))
	toHash := make(chan []byte, pipeBufs)
	var (
		wg      sync.WaitGroup
		failed  atomic.Bool
		digest  []byte
		w       = segWriter{fs: fs, dir: dir}
		werr    error
		readErr error
	)
	wg.Add(2)
	go func() {
		defer wg.Done()
		h := sha256.New()
		for b := range toHash {
			h.Write(b)
			free <- b[:cap(b)]
		}
		digest = h.Sum(nil)
	}()
	go func() {
		defer wg.Done()
		defer close(toHash)
		for c := range toWrite {
			if werr == nil {
				if werr = w.put(segs[c.seg], c.buf); werr != nil {
					failed.Store(true)
				}
			}
			if c.buf != nil {
				toHash <- c.buf
			}
		}
		w.close()
	}()

	for i := 0; i < len(segs) && !failed.Load() && readErr == nil; i++ {
		for !failed.Load() {
			b := take()
			n, err := io.ReadFull(segs[i].r, b)
			if n > 0 {
				toWrite <- segChunk{seg: i, buf: b[:n]}
			} else {
				free <- b
			}
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				toWrite <- segChunk{seg: i}
				break
			}
			if err != nil {
				readErr = fmt.Errorf("encode %s: %w", segs[i].name, err)
				break
			}
		}
	}
	close(toWrite)
	wg.Wait()
	if werr != nil {
		return nil, nil, werr
	}
	if readErr != nil {
		return nil, nil, readErr
	}
	return w.files, digest, nil
}

// segWriter is the pipeline's write stage: one open segment file at a time,
// with the running CRC and length of what it wrote.
type segWriter struct {
	fs    FS
	dir   string
	f     File
	crc   uint32
	n     int64
	files []ManifestFile
}

// put appends buf to segment s, creating its file on the first chunk. A nil
// buf ends the segment: fsync, close, and record its manifest entry.
func (w *segWriter) put(s segment, buf []byte) error {
	if w.f == nil {
		f, err := w.fs.Create(filepath.Join(w.dir, s.name))
		if err != nil {
			return err
		}
		w.f, w.crc, w.n = f, 0, 0
	}
	if buf != nil {
		w.crc = crc32.Update(w.crc, crc32.IEEETable, buf)
		w.n += int64(len(buf))
		_, err := w.f.Write(buf)
		return err
	}
	f := w.f
	w.f = nil
	err := f.Sync()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		w.files = append(w.files, ManifestFile{Name: s.name, Role: s.role, Bytes: w.n, CRC32: w.crc, FKColumn: s.fk})
	}
	return err
}

// close releases the file a failed put left open.
func (w *segWriter) close() {
	if w.f != nil {
		_ = w.f.Close()
		w.f = nil
	}
}

// readManifest loads and sanity-checks a checkpoint's manifest.
func readManifest(fs FS, dir string) (Manifest, error) {
	var m Manifest
	data, err := fs.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return m, fmt.Errorf("durable: checkpoint manifest: %w", err)
	}
	if err := json.Unmarshal(data, &m); err != nil {
		return m, fmt.Errorf("durable: checkpoint manifest: %w", err)
	}
	if m.Format != FormatVersion {
		return m, fmt.Errorf("durable: checkpoint format %d, this build reads %d", m.Format, FormatVersion)
	}
	return m, nil
}

// loadCheckpoint reads and fully verifies the checkpoint in dir: every
// listed file must exist with the manifested size, CRC and aggregate
// SHA-256, and decode cleanly. Anything less is an error — the caller
// falls back to an older checkpoint rather than serve partial state. The
// aggregate digest runs on its own goroutine alongside each segment's CRC
// check and decode; nothing decoded is returned unless it matches too.
func loadCheckpoint(fs FS, dir string) (*Checkpoint, error) {
	m, err := readManifest(fs, dir)
	if err != nil {
		return nil, err
	}
	toHash := make(chan []byte, len(m.Files)) // one send per segment: never blocks
	digest := make(chan string, 1)
	go func() {
		h := sha256.New()
		for data := range toHash {
			h.Write(data)
		}
		digest <- hex.EncodeToString(h.Sum(nil))
	}()
	ck, err := decodeSegments(fs, dir, m, toHash)
	close(toHash)
	sum := <-digest
	if err != nil {
		return nil, err
	}
	if sum != m.ContentSHA256 {
		return nil, fmt.Errorf("durable: checkpoint content digest mismatch")
	}
	fact := ck.DB.Fact
	if fact == nil {
		return nil, fmt.Errorf("durable: checkpoint has no fact segment")
	}
	if int64(fact.NumRows()) != m.Version {
		return nil, fmt.Errorf("durable: checkpoint fact has %d rows, manifest version is %d", fact.NumRows(), m.Version)
	}
	if len(ck.Perm) > fact.NumRows() {
		return nil, fmt.Errorf("durable: checkpoint permutation has %d entries for %d rows", len(ck.Perm), fact.NumRows())
	}
	return ck, nil
}

// decodeSegments reads, size- and CRC-checks and decodes m's segments in
// order, sending each segment's bytes to toHash before decoding it.
func decodeSegments(fs FS, dir string, m Manifest, toHash chan<- []byte) (*Checkpoint, error) {
	ck := &Checkpoint{Manifest: m, DB: &dataset.Database{}}
	for _, mf := range m.Files {
		data, err := fs.ReadFile(filepath.Join(dir, mf.Name))
		if err != nil {
			return nil, fmt.Errorf("durable: checkpoint segment %s: %w", mf.Name, err)
		}
		if int64(len(data)) != mf.Bytes {
			return nil, fmt.Errorf("durable: checkpoint segment %s: %d bytes, manifest says %d", mf.Name, len(data), mf.Bytes)
		}
		toHash <- data
		if crc32.ChecksumIEEE(data) != mf.CRC32 {
			return nil, fmt.Errorf("durable: checkpoint segment %s: CRC mismatch", mf.Name)
		}
		switch mf.Role {
		case roleFact:
			if ck.DB.Fact, err = dataset.DecodeTable(data); err != nil {
				return nil, err
			}
		case roleDim:
			t, err := dataset.DecodeTable(data)
			if err != nil {
				return nil, err
			}
			ck.DB.Dimensions = append(ck.DB.Dimensions, &dataset.Dimension{Table: t, FKColumn: mf.FKColumn})
		case rolePerm:
			if ck.Perm, err = decodePerm(data); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("durable: checkpoint segment %s: unknown role %q", mf.Name, mf.Role)
		}
	}
	return ck, nil
}

// listCheckpoints returns committed checkpoint versions under root in
// ascending order, ignoring temp litter.
func listCheckpoints(fs FS, root string) ([]int64, error) {
	names, err := fs.ReadDir(root)
	if err != nil {
		return nil, err
	}
	var versions []int64
	for _, name := range names {
		if v, ok := parseCheckpointDirName(name); ok {
			versions = append(versions, v)
		}
	}
	return versions, nil // ReadDir sorts; zero-padded names sort numerically
}
