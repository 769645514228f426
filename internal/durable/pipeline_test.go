package durable_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"idebench/internal/core"
	"idebench/internal/dataset"
	"idebench/internal/durable"
	"idebench/internal/stats"
)

// nthSyncFS fails exactly the fail-th fsync (file or directory, counted
// from 1 since calls was last reset; 0 fails none) and passes every other
// call through.
type nthSyncFS struct {
	durable.FS
	fail  int32
	calls atomic.Int32
}

func (f *nthSyncFS) hit() bool { return f.calls.Add(1) == f.fail }

func (f *nthSyncFS) Create(path string) (durable.File, error) {
	file, err := f.FS.Create(path)
	if err != nil {
		return nil, err
	}
	return &nthSyncFile{File: file, fs: f}, nil
}

func (f *nthSyncFS) SyncDir(path string) error {
	if f.hit() {
		return durable.ErrSyncFailed
	}
	return f.FS.SyncDir(path)
}

type nthSyncFile struct {
	durable.File
	fs *nthSyncFS
}

func (f *nthSyncFile) Sync() error {
	if f.fs.hit() {
		return durable.ErrSyncFailed
	}
	return f.File.Sync()
}

// ckptManifest is the part of a committed checkpoint's MANIFEST.json the
// fault wall compares.
type ckptManifest struct {
	ContentSHA256 string `json:"content_sha256"`
	Files         []struct {
		Name  string `json:"name"`
		Bytes int64  `json:"bytes"`
		CRC32 uint32 `json:"crc32"`
	} `json:"files"`
}

func readCkptManifest(t *testing.T, dir string, version int) ckptManifest {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, "checkpoints", ckptName(version), "MANIFEST.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m ckptManifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// settledGoroutines returns the goroutine count once it is at most want,
// or after a second. A goroutine that has signalled its WaitGroup may take
// a moment to exit; a leaked one never does.
func settledGoroutines(want int) int {
	deadline := time.Now().Add(time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= want || time.Now().After(deadline) {
			return n
		}
		time.Sleep(time.Millisecond)
	}
}

func ckptName(version int) string { return fmt.Sprintf("ckpt-%016d", version) }

// TestCheckpointPipelineFaults drives the streamed checkpoint writer into
// every failure it can meet part-way: ENOSPC budgets that run out inside
// the first chunk, across a chunk boundary, mid-fact, in each dimension
// segment, in the permutation segment and in the manifest; a failing fsync
// at each sync point before the rename; and a failing rename. Each must
// return the injected error, commit nothing (no new checkpoint, no temp
// litter, recovery still serves the previous checkpoint without falling
// back) and leave no pipeline goroutine running. A clean retry then
// commits a checkpoint identical to one written without faults.
func TestCheckpointPipelineFaults(t *testing.T) {
	// next's segments outgrow the pipeline's buffers (16 × 1 MiB), so the
	// faults also land while buffers are being recycled.
	const baseRows, nextRows = 3000, 230_000
	base, err := core.BuildData(baseRows, true, testSeed)
	if err != nil {
		t.Fatal(err)
	}
	next, err := core.BuildData(nextRows, true, testSeed+1)
	if err != nil {
		t.Fatal(err)
	}
	if len(next.Dimensions) == 0 {
		t.Fatal("fixture must be a star schema so dimension segments stream too")
	}
	perm := stats.Permutation(rand.New(rand.NewSource(testSeed)), nextRows)

	// A fault-free write of next gives the segment sizes, the sync count
	// and the manifest every clean retry must reproduce.
	cleanDir := t.TempDir()
	counter := durable.NewFaultFS(durable.OSFS{})
	st := openTestStore(t, cleanDir, durable.Options{FS: counter})
	if err := st.Bootstrap(base, nil); err != nil {
		t.Fatal(err)
	}
	syncsBefore := counter.Syncs()
	if err := st.Checkpoint(next, perm); err != nil {
		t.Fatal(err)
	}
	syncs := counter.Syncs() - syncsBefore
	st.Close()
	want := readCkptManifest(t, cleanDir, nextRows)
	if syncs != len(want.Files)+3 {
		t.Fatalf("checkpoint made %d fsyncs, want one per segment plus manifest, temp and parent directory (%d)",
			syncs, len(want.Files)+3)
	}
	var segEnds []int64 // cumulative byte offset where each segment ends
	var total int64
	for _, f := range want.Files {
		total += f.Bytes
		segEnds = append(segEnds, total)
	}
	if want.Files[0].Bytes < 17<<20 {
		t.Fatalf("fact segment %d bytes: too small to recycle the pipeline's buffers", want.Files[0].Bytes)
	}

	// Each fault is armed only once its store has recovered, so the sync
	// and byte counts start at the checkpoint under test.
	type fault struct {
		name string
		fs   durable.FS
		arm  func()
		want error
		// For ENOSPC: the fsyncs made since arm, which must be one per
		// segment completed before the fault — the writer stops at the
		// first failed write rather than syncing a short file.
		syncs     func() int
		wantSyncs int
	}
	var faults []fault
	budget := func(name string, n int64) {
		ffs := durable.NewFaultFS(durable.OSFS{})
		var armed int
		synced := 0
		for _, end := range segEnds {
			if end <= n {
				synced++
			}
		}
		faults = append(faults, fault{name, ffs,
			func() { armed = ffs.Syncs(); ffs.SetWriteBudget(n) }, durable.ErrNoSpace,
			func() int { return ffs.Syncs() - armed }, synced})
	}
	for _, n := range []int64{0, 1, 4095, 1<<20 - 1, 1 << 20, 1<<20 + 1, segEnds[0] / 2, segEnds[0] - 1, segEnds[0]} {
		budget(fmt.Sprintf("enospc@%d", n), n)
	}
	for i := 1; i < len(segEnds); i++ {
		budget("enospc-in-"+want.Files[i].Name, (segEnds[i-1]+segEnds[i])/2)
	}
	budget("enospc-in-manifest", total+10)
	for k := 1; k < syncs; k++ { // the last sync (the parent directory) follows the rename
		sfs := &nthSyncFS{FS: durable.OSFS{}}
		faults = append(faults, fault{fmt.Sprintf("sync#%d", k), sfs, func() {
			sfs.calls.Store(0)
			sfs.fail = int32(k)
		}, durable.ErrSyncFailed, nil, 0})
	}
	rfs := durable.NewFaultFS(durable.OSFS{})
	faults = append(faults, fault{"rename", rfs, func() { rfs.FailNextRenames(1) }, durable.ErrRenameFailed, nil, 0})

	dir := t.TempDir()
	st = openTestStore(t, dir, durable.Options{})
	if err := st.Bootstrap(base, nil); err != nil {
		t.Fatal(err)
	}
	st.Close()
	for _, f := range faults {
		fst := openTestStore(t, dir, durable.Options{FS: f.fs})
		if _, err := fst.Recover(); err != nil {
			t.Fatal(err)
		}
		f.arm()
		goroutines := runtime.NumGoroutine()
		err := fst.Checkpoint(next, perm)
		if n := settledGoroutines(goroutines); n > goroutines {
			t.Errorf("%s: %d goroutines after the failed checkpoint, %d before", f.name, n, goroutines)
		}
		if f.syncs != nil {
			if n := f.syncs(); n != f.wantSyncs {
				t.Errorf("%s: %d fsyncs before the failure surfaced, want %d", f.name, n, f.wantSyncs)
			}
		}
		fst.Close()
		if !errors.Is(err, f.want) {
			t.Fatalf("%s: got %v, want %v", f.name, err, f.want)
		}
		ents, err := os.ReadDir(filepath.Join(dir, "checkpoints"))
		if err != nil {
			t.Fatal(err)
		}
		if len(ents) != 1 || ents[0].Name() != ckptName(baseRows) {
			var names []string
			for _, e := range ents {
				names = append(names, e.Name())
			}
			t.Fatalf("%s: checkpoints directory holds %v, want only %s", f.name, names, ckptName(baseRows))
		}
		rst := openTestStore(t, dir, durable.Options{})
		rec, err := rst.Recover()
		if err != nil {
			t.Fatalf("%s: recover: %v", f.name, err)
		}
		rst.Close()
		if rec.Info.FellBack || rec.Checkpoint.Version() != baseRows {
			t.Fatalf("%s: recovered checkpoint %d (fell back %v), want the intact %d",
				f.name, rec.Checkpoint.Version(), rec.Info.FellBack, baseRows)
		}
	}

	// The faults left nothing behind that changes a later clean checkpoint.
	st = openTestStore(t, dir, durable.Options{})
	if _, err := st.Recover(); err != nil {
		t.Fatal(err)
	}
	if err := st.Checkpoint(next, perm); err != nil {
		t.Fatal(err)
	}
	st.Close()
	got := readCkptManifest(t, dir, nextRows)
	gotJSON, _ := json.Marshal(got)
	wantJSON, _ := json.Marshal(want)
	if string(gotJSON) != string(wantJSON) {
		t.Fatalf("retry after faults wrote\n%s\nwant\n%s", gotJSON, wantJSON)
	}
}

// TestCheckpointSegmentsMatchWholeEncoding pins the streamed writer to the
// bytes of encoding each table whole: every segment file equals
// dataset.EncodeTable of its table, byte for byte.
func TestCheckpointSegmentsMatchWholeEncoding(t *testing.T) {
	db, err := core.BuildData(40000, true, testSeed)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	st := openTestStore(t, dir, durable.Options{})
	if err := st.Bootstrap(db, nil); err != nil {
		t.Fatal(err)
	}
	st.Close()
	ckpt := filepath.Join(dir, "checkpoints", ckptName(40000))
	tables := []*dataset.Table{db.Fact}
	names := []string{"fact.seg"}
	for i, d := range db.Dimensions {
		tables = append(tables, d.Table)
		names = append(names, fmt.Sprintf("dim-%02d.seg", i))
	}
	for i, tb := range tables {
		data, err := os.ReadFile(filepath.Join(ckpt, names[i]))
		if err != nil {
			t.Fatal(err)
		}
		if string(data) != string(dataset.EncodeTable(tb)) {
			t.Fatalf("%s differs from EncodeTable of its table", names[i])
		}
	}
}

// TestCheckpointLoadRejectsDigestMismatch: segments whose sizes and CRCs
// all verify still must not load when the content digest disagrees — the
// digest runs beside the CRC checks and decodes, and its verdict gates the
// result.
func TestCheckpointLoadRejectsDigestMismatch(t *testing.T) {
	dir := t.TempDir()
	st := openTestStore(t, dir, durable.Options{})
	if err := st.Bootstrap(testDB(t), nil); err != nil {
		t.Fatal(err)
	}
	st.Close()
	path := filepath.Join(dir, "checkpoints", ckptName(testBaseRows), "MANIFEST.json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	sum := []byte(m["content_sha256"].(string))
	if sum[0] == '0' {
		sum[0] = '1'
	} else {
		sum[0] = '0'
	}
	m["content_sha256"] = string(sum)
	if data, err = json.Marshal(m); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	st = openTestStore(t, dir, durable.Options{})
	defer st.Close()
	rec, err := st.Recover()
	if err == nil || !strings.Contains(err.Error(), "digest") {
		t.Fatalf("digest mismatch must fail recovery, got %v (recovery %+v)", err, rec)
	}
}
