package storage

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestNewPageRejectsTinySizes(t *testing.T) {
	if _, err := NewPage(16); err == nil {
		t.Fatal("expected error for tiny page")
	}
}

func TestPageInsertAndRecord(t *testing.T) {
	p, err := NewPage(256)
	if err != nil {
		t.Fatal(err)
	}
	recs := [][]byte{[]byte("alpha"), []byte("bravo-bravo"), []byte("c")}
	for i, r := range recs {
		slot, err := p.Insert(r)
		if err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
		if slot != i {
			t.Fatalf("slot = %d, want %d", slot, i)
		}
	}
	if p.NumRecords() != 3 {
		t.Fatalf("NumRecords = %d", p.NumRecords())
	}
	for i, want := range recs {
		got, err := p.Record(i)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("record %d = %q, want %q", i, got, want)
		}
	}
}

func TestPageRecordOutOfRange(t *testing.T) {
	p, _ := NewPage(128)
	if _, err := p.Record(0); err == nil {
		t.Fatal("empty page should have no record 0")
	}
	p.Insert([]byte("x"))
	if _, err := p.Record(-1); err == nil {
		t.Fatal("negative slot must error")
	}
	if _, err := p.Record(1); err == nil {
		t.Fatal("slot past end must error")
	}
}

func TestPageFull(t *testing.T) {
	p, _ := NewPage(64)
	rec := make([]byte, 20)
	inserted := 0
	for {
		if _, err := p.Insert(rec); err != nil {
			if err != ErrPageFull {
				t.Fatalf("unexpected error: %v", err)
			}
			break
		}
		inserted++
	}
	// 64-byte page: 4 header + per record 20+4 = 24 → 2 records fit.
	if inserted != 2 {
		t.Fatalf("inserted %d records into a 64-byte page, want 2", inserted)
	}
}

func TestPageFreeSpaceDecreases(t *testing.T) {
	p, _ := NewPage(256)
	before := p.FreeSpace()
	p.Insert(make([]byte, 10))
	after := p.FreeSpace()
	if after != before-10-slotSize {
		t.Fatalf("free space went %d → %d, want decrease of %d", before, after, 10+slotSize)
	}
}

func TestPageSurvivesSerialization(t *testing.T) {
	p, _ := NewPage(128)
	p.Insert([]byte("persisted"))
	clone := pageFromBytes(append([]byte(nil), p.Bytes()...))
	got, err := clone.Record(0)
	if err != nil || string(got) != "persisted" {
		t.Fatalf("round trip failed: %q, %v", got, err)
	}
}

func TestDiskCreateAllocReadWrite(t *testing.T) {
	d := NewDisk(128)
	f := d.CreateFile()
	id, err := d.AllocPage(f)
	if err != nil {
		t.Fatal(err)
	}
	if id != (PageID{File: f, Page: 0}) {
		t.Fatalf("first page id = %v", id)
	}
	buf := make([]byte, 128)
	copy(buf, "hello disk")
	if err := d.WritePage(id, buf); err != nil {
		t.Fatal(err)
	}
	got, err := d.ReadPage(id)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got[:10], []byte("hello disk")) {
		t.Fatalf("read back %q", got[:10])
	}
	s := d.Stats()
	if s.Reads != 1 || s.Writes != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestDiskInvalidAccess(t *testing.T) {
	d := NewDisk(128)
	if _, err := d.ReadPage(PageID{File: 99, Page: 0}); err == nil {
		t.Error("read of unknown file must fail")
	}
	f := d.CreateFile()
	if _, err := d.ReadPage(PageID{File: f, Page: 0}); err == nil {
		t.Error("read past end of file must fail")
	}
	if _, err := d.AllocPage(FileID(42)); err == nil {
		t.Error("alloc on unknown file must fail")
	}
	d.AllocPage(f)
	if err := d.WritePage(PageID{File: f, Page: 0}, make([]byte, 64)); err == nil {
		t.Error("short write must fail")
	}
}

func TestDiskReadReturnsCopy(t *testing.T) {
	d := NewDisk(128)
	f := d.CreateFile()
	id, _ := d.AllocPage(f)
	buf := make([]byte, 128)
	buf[0] = 7
	d.WritePage(id, buf)
	got, _ := d.ReadPage(id)
	got[0] = 99
	again, _ := d.ReadPage(id)
	if again[0] != 7 {
		t.Fatal("mutating a read buffer must not affect the disk")
	}
}

func TestDiskResetStats(t *testing.T) {
	d := NewDisk(128)
	f := d.CreateFile()
	id, _ := d.AllocPage(f)
	d.WritePage(id, make([]byte, 128))
	d.ResetStats()
	if s := d.Stats(); s.Reads != 0 || s.Writes != 0 {
		t.Fatalf("stats after reset = %+v", s)
	}
}

func newPoolT(t *testing.T, pageSize, capacity int) (*Disk, *BufferPool) {
	t.Helper()
	d := NewDisk(pageSize)
	bp, err := NewBufferPool(d, capacity)
	if err != nil {
		t.Fatal(err)
	}
	return d, bp
}

// allocInit allocates a page and initializes it as an empty slotted page.
func allocInit(t *testing.T, d *Disk, f FileID) PageID {
	t.Helper()
	id, err := d.AllocPage(f)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := NewPage(d.PageSize())
	if err := d.WritePage(id, p.Bytes()); err != nil {
		t.Fatal(err)
	}
	return id
}

func TestBufferPoolHitAndMiss(t *testing.T) {
	d, bp := newPoolT(t, 128, 4)
	f := d.CreateFile()
	id := allocInit(t, d, f)
	d.ResetStats()

	if _, err := bp.Fetch(id); err != nil {
		t.Fatal(err)
	}
	if _, err := bp.Fetch(id); err != nil {
		t.Fatal(err)
	}
	s := bp.Stats()
	if s.LogicalReads != 2 || s.Misses != 1 {
		t.Fatalf("stats = %+v, want 2 logical / 1 miss", s)
	}
	if hr := s.HitRatio(); hr != 0.5 {
		t.Fatalf("hit ratio = %g", hr)
	}
	if ds := d.Stats(); ds.Reads != 1 {
		t.Fatalf("disk reads = %d, want 1", ds.Reads)
	}
}

func TestBufferPoolLRUEviction(t *testing.T) {
	d, bp := newPoolT(t, 128, 2)
	f := d.CreateFile()
	a := allocInit(t, d, f)
	b := allocInit(t, d, f)
	c := allocInit(t, d, f)

	bp.Fetch(a)
	bp.Fetch(b)
	bp.Fetch(a) // a is now MRU; b is LRU
	bp.Fetch(c) // evicts b
	if bp.Resident(b) {
		t.Fatal("b should have been evicted (LRU)")
	}
	if !bp.Resident(a) || !bp.Resident(c) {
		t.Fatal("a and c should be resident")
	}
	if ev := bp.Stats().Evictions; ev != 1 {
		t.Fatalf("evictions = %d", ev)
	}
}

// TestBufferPoolAllHeldFails checks the exhausted-pool error: when every
// frame is dirtied by an open transaction under a WAL, no frame may be
// evicted, so a miss has nowhere to go.
func TestBufferPoolAllHeldFails(t *testing.T) {
	d, bp := newPoolT(t, 128, 1)
	bp.SetWAL(&fakeWAL{})
	f := d.CreateFile()
	a := allocInit(t, d, f)
	b := allocInit(t, d, f)
	if _, err := bp.Fetch(a); err != nil {
		t.Fatal(err)
	}
	if err := bp.MarkDirty(a); err != nil {
		t.Fatal(err)
	}
	_, err := bp.Fetch(b)
	if err == nil || !strings.Contains(err.Error(), "held by an open transaction") {
		t.Fatalf("fetch with every frame held = %v, want the exhausted-pool error", err)
	}
}

func TestBufferPoolDirtyWriteBackOnEviction(t *testing.T) {
	d, bp := newPoolT(t, 128, 1)
	f := d.CreateFile()
	a := allocInit(t, d, f)
	b := allocInit(t, d, f)

	p, _ := bp.Fetch(a)
	p.Insert([]byte("dirty"))
	bp.MarkDirty(a)
	bp.Fetch(b) // evicts a, must write it back

	buf, _ := d.ReadPage(a)
	rec, err := pageFromBytes(buf).Record(0)
	if err != nil || string(rec) != "dirty" {
		t.Fatalf("dirty page lost on eviction: %q, %v", rec, err)
	}
}

func TestBufferPoolFlush(t *testing.T) {
	d, bp := newPoolT(t, 128, 4)
	f := d.CreateFile()
	a := allocInit(t, d, f)
	p, _ := bp.Fetch(a)
	p.Insert([]byte("flushed"))
	bp.MarkDirty(a)
	if err := bp.Flush(); err != nil {
		t.Fatal(err)
	}
	buf, _ := d.ReadPage(a)
	if rec, _ := pageFromBytes(buf).Record(0); string(rec) != "flushed" {
		t.Fatalf("flush did not persist: %q", rec)
	}
	if !bp.Resident(a) {
		t.Fatal("flush must keep pages resident")
	}
}

func TestBufferPoolDropAll(t *testing.T) {
	d, bp := newPoolT(t, 128, 4)
	f := d.CreateFile()
	a := allocInit(t, d, f)
	bp.Fetch(a)
	if err := bp.DropAll(); err != nil {
		t.Fatal(err)
	}
	if bp.Resident(a) {
		t.Fatal("page still resident after DropAll")
	}
}

func TestBufferPoolMarkDirtyNonResident(t *testing.T) {
	d, bp := newPoolT(t, 128, 2)
	f := d.CreateFile()
	a := allocInit(t, d, f)
	if err := bp.MarkDirty(a); err == nil {
		t.Fatal("MarkDirty of non-resident page must fail")
	}
}

func TestNewBufferPoolRejectsZeroCapacity(t *testing.T) {
	if _, err := NewBufferPool(NewDisk(128), 0); err == nil {
		t.Fatal("capacity 0 must be rejected")
	}
}

func TestHeapFileAppendGet(t *testing.T) {
	d, bp := newPoolT(t, 256, 8)
	_ = d
	h, err := NewHeapFile(bp, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	var rids []RID
	for i := 0; i < 50; i++ {
		rid, err := h.Append([]byte(fmt.Sprintf("record-%02d", i)))
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	if h.NumRecords() != 50 {
		t.Fatalf("NumRecords = %d", h.NumRecords())
	}
	for i, rid := range rids {
		rec, err := h.Get(rid)
		if err != nil {
			t.Fatalf("get %d: %v", i, err)
		}
		if want := fmt.Sprintf("record-%02d", i); string(rec) != want {
			t.Fatalf("record %d = %q, want %q", i, rec, want)
		}
	}
}

func TestHeapFileFillFactorControlsDensity(t *testing.T) {
	_, bp := newPoolT(t, 2000, 64)
	full, _ := NewHeapFile(bp, 1.0)
	sparse, _ := NewHeapFile(bp, 0.5)
	rec := make([]byte, 300) // the paper's tuple size v
	for i := 0; i < 100; i++ {
		if _, err := full.Append(rec); err != nil {
			t.Fatal(err)
		}
		if _, err := sparse.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if full.NumPages() >= sparse.NumPages() {
		t.Fatalf("fill factor 0.5 should need more pages: full=%d sparse=%d",
			full.NumPages(), sparse.NumPages())
	}
	// v=300, s=2000, l≈0.75 gives the paper's m=5; check our l=1.0 packs 6
	// and l=0.5 packs 3 records per page (304 bytes incl. slot each).
	if got := 100.0 / float64(full.NumPages()); got > 6.5 || got < 5.5 {
		t.Errorf("records/page at l=1.0 = %g, want ≈6", got)
	}
	if got := 100.0 / float64(sparse.NumPages()); got > 3.5 || got < 2.5 {
		t.Errorf("records/page at l=0.5 = %g, want ≈3", got)
	}
}

func TestHeapFileRejectsOversizeRecord(t *testing.T) {
	_, bp := newPoolT(t, 256, 4)
	h, _ := NewHeapFile(bp, 1.0)
	if _, err := h.Append(make([]byte, 300)); err == nil {
		t.Fatal("oversize record must be rejected")
	}
}

func TestHeapFileRejectsBadFillFactor(t *testing.T) {
	_, bp := newPoolT(t, 256, 4)
	for _, ff := range []float64{0, -1, 1.5} {
		if _, err := NewHeapFile(bp, ff); err == nil {
			t.Fatalf("fill factor %g must be rejected", ff)
		}
	}
}

func TestHeapFileScanOrderAndEarlyStop(t *testing.T) {
	_, bp := newPoolT(t, 256, 8)
	h, _ := NewHeapFile(bp, 1.0)
	for i := 0; i < 30; i++ {
		h.Append([]byte{byte(i)})
	}
	var seen []byte
	h.Scan(func(_ RID, rec []byte) bool {
		seen = append(seen, rec[0])
		return len(seen) < 10
	})
	if len(seen) != 10 {
		t.Fatalf("early stop failed: saw %d", len(seen))
	}
	for i, v := range seen {
		if int(v) != i {
			t.Fatalf("scan order broken at %d: %d", i, v)
		}
	}
}

func TestHeapFileSurvivesEviction(t *testing.T) {
	// A 2-frame pool forces every page through eviction; data must persist.
	_, bp := newPoolT(t, 256, 2)
	h, _ := NewHeapFile(bp, 1.0)
	var rids []RID
	for i := 0; i < 100; i++ {
		rid, err := h.Append([]byte(fmt.Sprintf("v%03d", i)))
		if err != nil {
			t.Fatal(err)
		}
		rids = append(rids, rid)
	}
	if err := bp.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := bp.DropAll(); err != nil {
		t.Fatal(err)
	}
	for i, rid := range rids {
		rec, err := h.Get(rid)
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("v%03d", i); string(rec) != want {
			t.Fatalf("record %d = %q after eviction, want %q", i, rec, want)
		}
	}
}

func TestHeapFileScanCountsPageIO(t *testing.T) {
	_, bp := newPoolT(t, 256, 64)
	h, _ := NewHeapFile(bp, 1.0)
	for i := 0; i < 60; i++ {
		h.Append(make([]byte, 20))
	}
	bp.Flush()
	bp.DropAll()
	bp.ResetStats()
	h.Scan(func(RID, []byte) bool { return true })
	s := bp.Stats()
	if int(s.Misses) != h.NumPages() {
		t.Fatalf("cold scan misses = %d, want one per page (%d)", s.Misses, h.NumPages())
	}
}

func TestAccessors(t *testing.T) {
	d := NewDisk(0)
	if d.PageSize() != DefaultPageSize {
		t.Fatalf("default page size = %d", d.PageSize())
	}
	bp, _ := NewBufferPool(d, 7)
	if bp.Capacity() != 7 {
		t.Fatalf("capacity = %d", bp.Capacity())
	}
	if bp.Disk() != d {
		t.Fatal("Disk accessor broken")
	}
	if (PoolStats{}).HitRatio() != 0 {
		t.Fatal("empty pool hit ratio must be 0")
	}
	p, _ := NewPage(128)
	if p.Size() != 128 {
		t.Fatalf("page size = %d", p.Size())
	}
	h, _ := NewHeapFile(bp, 1.0)
	if h.File() != FileID(0) {
		t.Fatalf("heap file id = %d", h.File())
	}
}

func TestStringers(t *testing.T) {
	id := PageID{File: 2, Page: 5}
	if id.String() != "f2:p5" {
		t.Fatalf("PageID string = %q", id)
	}
	rid := RID{Page: id, Slot: 3}
	if rid.String() != "f2:p5:s3" {
		t.Fatalf("RID string = %q", rid)
	}
}

func TestPageOversizeRecordSlot(t *testing.T) {
	// A record larger than the uint16 slot length must be rejected by the
	// page even if the page were hypothetically large enough.
	p, err := NewPage(70000)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Insert(make([]byte, 66000)); err == nil {
		t.Fatal("oversize record must be rejected")
	}
}

// flakyDevice wraps a healthy Disk with scripted failures. It stands in for
// internal/fault, which cannot be imported here without a cycle; only the
// error classification contract (Transient/Permanent methods) is shared.
type flakyDevice struct {
	*Disk
	failReads  map[PageID]int  // remaining transient read failures per page
	failWrites map[PageID]int  // remaining transient write failures per page
	stuckWrite map[PageID]bool // writes fail permanently
	corrupt    map[PageID]int  // remaining reads with a flipped byte (-1: always)
}

func newFlaky(pageSize int) *flakyDevice {
	return &flakyDevice{
		Disk:       NewDisk(pageSize),
		failReads:  make(map[PageID]int),
		failWrites: make(map[PageID]int),
		stuckWrite: make(map[PageID]bool),
		corrupt:    make(map[PageID]int),
	}
}

type transientErr struct{}

func (transientErr) Error() string   { return "flaky: transient fault" }
func (transientErr) Transient() bool { return true }

type permanentErr struct{}

func (permanentErr) Error() string   { return "flaky: permanent fault" }
func (permanentErr) Transient() bool { return false }
func (permanentErr) Permanent() bool { return true }

func (d *flakyDevice) ReadPage(id PageID) ([]byte, error) {
	if d.failReads[id] > 0 {
		d.failReads[id]--
		return nil, transientErr{}
	}
	buf, err := d.Disk.ReadPage(id)
	if err != nil {
		return nil, err
	}
	if n := d.corrupt[id]; n != 0 {
		if n > 0 {
			d.corrupt[id]--
		}
		buf[0] ^= 0xff
	}
	return buf, nil
}

func (d *flakyDevice) WritePage(id PageID, buf []byte) error {
	if d.stuckWrite[id] {
		return permanentErr{}
	}
	if d.failWrites[id] > 0 {
		d.failWrites[id]--
		return transientErr{}
	}
	return d.Disk.WritePage(id, buf)
}

// newFlakyPool builds a pool over a flaky device with zero-delay retries so
// fault tests run at full speed.
func newFlakyPool(t *testing.T, capacity, attempts int) (*flakyDevice, *BufferPool) {
	t.Helper()
	d := newFlaky(128)
	bp, err := NewBufferPool(d, capacity)
	if err != nil {
		t.Fatal(err)
	}
	bp.SetRetryPolicy(RetryPolicy{MaxAttempts: attempts})
	return d, bp
}

func TestPoolRetriesTransientReadsThenSucceeds(t *testing.T) {
	d, bp := newFlakyPool(t, 4, 4)
	f := d.CreateFile()
	id := allocInit(t, d.Disk, f)
	d.failReads[id] = 2

	if _, err := bp.Fetch(id); err != nil {
		t.Fatalf("fetch with 2 transient faults and budget 4: %v", err)
	}
	if s := bp.Stats(); s.ReadRetries != 2 {
		t.Fatalf("ReadRetries = %d, want 2", s.ReadRetries)
	}
}

func TestPoolReadRetryBudgetExhausted(t *testing.T) {
	d, bp := newFlakyPool(t, 4, 3)
	f := d.CreateFile()
	id := allocInit(t, d.Disk, f)
	d.failReads[id] = 100

	_, err := bp.Fetch(id)
	if err == nil {
		t.Fatal("fetch must fail when faults outlast the budget")
	}
	if !IsTransient(err) {
		t.Fatalf("exhausted-budget error lost its classification: %v", err)
	}
	if s := bp.Stats(); s.ReadRetries != 2 {
		t.Fatalf("ReadRetries = %d, want budget-1 = 2", s.ReadRetries)
	}
}

func TestPoolChecksumMismatchRetriedThenTyped(t *testing.T) {
	d, bp := newFlakyPool(t, 4, 3)
	f := d.CreateFile()
	id := allocInit(t, d.Disk, f)

	// One-shot in-flight corruption: the re-read returns clean bytes.
	d.corrupt[id] = 1
	if _, err := bp.Fetch(id); err != nil {
		t.Fatalf("one-shot corruption with retry budget: %v", err)
	}
	if s := bp.Stats(); s.ReadRetries != 1 {
		t.Fatalf("ReadRetries = %d, want 1", s.ReadRetries)
	}

	// Persistent corruption: every retry sees garbage; the typed checksum
	// error must surface rather than corrupt bytes.
	bp.DropAll()
	bp.ResetStats()
	d.corrupt[id] = -1
	_, err := bp.Fetch(id)
	if err == nil {
		t.Fatal("persistently corrupted page must not be served")
	}
	if !IsChecksum(err) {
		t.Fatalf("error is not a checksum mismatch: %v", err)
	}
	if IsTransient(err) {
		t.Fatalf("checksum error misclassified as transient: %v", err)
	}
	if s := bp.Stats(); s.ReadRetries != 2 {
		t.Fatalf("ReadRetries = %d, want budget-1 = 2", s.ReadRetries)
	}
}

func TestEvictionSkipsUnwritableVictim(t *testing.T) {
	d, bp := newFlakyPool(t, 2, 2)
	f := d.CreateFile()
	a := allocInit(t, d.Disk, f)
	b := allocInit(t, d.Disk, f)
	c := allocInit(t, d.Disk, f)

	pa, _ := bp.Fetch(a)
	pa.Insert([]byte("precious"))
	bp.MarkDirty(a)
	d.stuckWrite[a] = true
	bp.Fetch(b) // a is LRU and dirty but unwritable
	if _, err := bp.Fetch(c); err != nil {
		t.Fatalf("eviction must skip the unwritable victim and take b: %v", err)
	}
	if !bp.Resident(a) || !bp.Dirty(a) {
		t.Fatal("unwritable dirty victim must stay resident and dirty")
	}
	if bp.Resident(b) {
		t.Fatal("clean frame b should have been evicted instead")
	}

	// Once the device heals, the preserved modification must still flush.
	d.stuckWrite[a] = false
	if err := bp.Flush(); err != nil {
		t.Fatal(err)
	}
	buf, _ := d.Disk.ReadPage(a)
	if rec, _ := pageFromBytes(buf).Record(0); string(rec) != "precious" {
		t.Fatalf("modification lost across failed eviction: %q", rec)
	}
}

func TestEvictionFailsTypedWhenNoVictimWritable(t *testing.T) {
	d, bp := newFlakyPool(t, 1, 2)
	f := d.CreateFile()
	a := allocInit(t, d.Disk, f)
	b := allocInit(t, d.Disk, f)

	pa, _ := bp.Fetch(a)
	pa.Insert([]byte("keep"))
	bp.MarkDirty(a)
	d.stuckWrite[a] = true
	_, err := bp.Fetch(b)
	if err == nil {
		t.Fatal("fetch must fail when the only victim is unwritable")
	}
	if IsTransient(err) {
		t.Fatalf("permanent write-back failure misclassified: %v", err)
	}
	if !bp.Resident(a) || !bp.Dirty(a) {
		t.Fatal("failed eviction must not lose the dirty frame")
	}
}

func TestFlushKeepsFailedFrameDirtyFlushesRest(t *testing.T) {
	d, bp := newFlakyPool(t, 4, 2)
	f := d.CreateFile()
	a := allocInit(t, d.Disk, f)
	b := allocInit(t, d.Disk, f)

	pa, _ := bp.Fetch(a)
	pa.Insert([]byte("stuck"))
	bp.MarkDirty(a)
	pb, _ := bp.Fetch(b)
	pb.Insert([]byte("fine"))
	bp.MarkDirty(b)

	d.stuckWrite[a] = true
	if err := bp.Flush(); err == nil {
		t.Fatal("flush with an unwritable frame must report the failure")
	}
	if !bp.Dirty(a) {
		t.Fatal("frame whose write-back failed must stay dirty")
	}
	if bp.Dirty(b) {
		t.Fatal("flush must still write the other dirty frames")
	}
	buf, _ := d.Disk.ReadPage(b)
	if rec, _ := pageFromBytes(buf).Record(0); string(rec) != "fine" {
		t.Fatalf("healthy frame not flushed: %q", rec)
	}

	d.stuckWrite[a] = false
	if err := bp.Flush(); err != nil {
		t.Fatalf("flush after heal: %v", err)
	}
	buf, _ = d.Disk.ReadPage(a)
	if rec, _ := pageFromBytes(buf).Record(0); string(rec) != "stuck" {
		t.Fatalf("retried flush lost the modification: %q", rec)
	}
}

func TestDropAllPartialFailureIsRetryable(t *testing.T) {
	d, bp := newFlakyPool(t, 4, 2)
	f := d.CreateFile()
	a := allocInit(t, d.Disk, f)
	b := allocInit(t, d.Disk, f)

	pa, _ := bp.Fetch(a)
	pa.Insert([]byte("held"))
	bp.MarkDirty(a)
	pb, _ := bp.Fetch(b)
	pb.Insert([]byte("safe"))
	bp.MarkDirty(b)

	d.stuckWrite[a] = true
	if err := bp.DropAll(); err == nil {
		t.Fatal("DropAll with an unwritable frame must fail")
	}
	// Nothing was dropped: the failed frame keeps its modification in
	// memory, and the flushed frame is clean but still resident.
	if !bp.Resident(a) || !bp.Resident(b) {
		t.Fatal("DropAll must not drop frames on a partial failure")
	}
	if !bp.Dirty(a) || bp.Dirty(b) {
		t.Fatalf("dirty bits wrong after partial DropAll: a=%v b=%v", bp.Dirty(a), bp.Dirty(b))
	}

	d.stuckWrite[a] = false
	if err := bp.DropAll(); err != nil {
		t.Fatalf("DropAll retry after heal: %v", err)
	}
	if bp.Resident(a) || bp.Resident(b) {
		t.Fatal("retried DropAll must empty the pool")
	}
	buf, _ := d.Disk.ReadPage(a)
	if rec, _ := pageFromBytes(buf).Record(0); string(rec) != "held" {
		t.Fatalf("modification lost across retried DropAll: %q", rec)
	}
}

func TestPoolWriteRetriesTransientOnly(t *testing.T) {
	d, bp := newFlakyPool(t, 4, 4)
	f := d.CreateFile()
	a := allocInit(t, d.Disk, f)
	pa, _ := bp.Fetch(a)
	pa.Insert([]byte("retried"))
	bp.MarkDirty(a)
	d.failWrites[a] = 2
	if err := bp.Flush(); err != nil {
		t.Fatalf("flush with 2 transient write faults and budget 4: %v", err)
	}
	if s := bp.Stats(); s.WriteRetries != 2 {
		t.Fatalf("WriteRetries = %d, want 2", s.WriteRetries)
	}
	buf, _ := d.Disk.ReadPage(a)
	if rec, _ := pageFromBytes(buf).Record(0); string(rec) != "retried" {
		t.Fatalf("retried write lost data: %q", rec)
	}
}

func TestRetryPolicyBackoffDeterministicAndBounded(t *testing.T) {
	record := func(seed int64) []time.Duration {
		var delays []time.Duration
		p := RetryPolicy{
			MaxAttempts: 6,
			BaseDelay:   100 * time.Microsecond,
			MaxDelay:    400 * time.Microsecond,
			Seed:        seed,
			sleep:       func(d time.Duration) { delays = append(delays, d) },
		}
		id := PageID{File: 3, Page: 9}
		for retry := 1; retry <= 5; retry++ {
			p.pause(retry, id)
		}
		return delays
	}
	a, b := record(42), record(42)
	if len(a) != 5 {
		t.Fatalf("recorded %d delays, want 5", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("backoff not deterministic at retry %d: %v vs %v", i+1, a[i], b[i])
		}
	}
	// Jitter stays in [50%, 100%] of the doubled-then-capped backoff.
	want := []time.Duration{100, 200, 400, 400, 400} // microseconds, pre-jitter
	for i, d := range a {
		hi := want[i] * time.Microsecond
		lo := hi / 2
		if d < lo || d > hi {
			t.Fatalf("retry %d delay %v outside [%v, %v]", i+1, d, lo, hi)
		}
	}
	if c := record(43); c[0] == a[0] && c[1] == a[1] && c[2] == a[2] {
		t.Fatal("different seeds should jitter differently")
	}
}
