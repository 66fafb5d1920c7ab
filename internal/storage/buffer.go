package storage

import (
	"container/list"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"spatialjoin/internal/obs"
)

// PoolStats counts the buffer pool's activity. LogicalReads is every page
// request; Misses are the requests that went to disk. The paper's cost
// figures charge C_IO per physical access, i.e. per miss. ReadRetries and
// WriteRetries are the physical attempts beyond the first that the pool's
// retry policy issued — they keep the accounting honest when the device
// underneath injects faults: physical attempts = Misses + ReadRetries on
// the read side, and analogously for write-backs.
type PoolStats struct {
	LogicalReads int64
	Misses       int64
	Evictions    int64
	ReadRetries  int64
	WriteRetries int64
	// WALSyncs counts the log syncs the pool forced before writing back a
	// dirty frame the durable log did not yet cover (the WAL-before-
	// write-back discipline).
	WALSyncs int64
}

// HitRatio returns the fraction of logical reads served from memory.
func (s PoolStats) HitRatio() float64 {
	if s.LogicalReads == 0 {
		return 0
	}
	return 1 - float64(s.Misses)/float64(s.LogicalReads)
}

// BufferPool caches up to Capacity pages in memory with LRU replacement.
// BufferPool is safe for concurrent use: the frame table is guarded by a
// mutex, while the activity counters are atomics so concurrent readers can
// snapshot statistics without serializing on the frame lock.
//
// Every physical transfer is verified end-to-end: pages read from the
// device are checked against the device's recorded checksum, so a page
// corrupted on media or in flight is detected here — before any executor
// can join over garbage — and surfaces as a *ChecksumError after the retry
// budget is exhausted.
type BufferPool struct {
	mu       sync.Mutex
	disk     Device
	capacity int
	retry    RetryPolicy
	wal      WAL // nil = no write-ahead logging
	frames   map[PageID]*list.Element
	lru      *list.List // front = most recently used

	logicalReads atomic.Int64
	misses       atomic.Int64
	evictions    atomic.Int64
	readRetries  atomic.Int64
	writeRetries atomic.Int64
	walSyncs     atomic.Int64
}

// WAL is the hook through which the pool enforces write-ahead logging
// without importing the log's package: DurableLSN is the log offset below
// which every record is on disk, and Sync forces the log durable. Both must
// be safe to call while the pool holds its frame lock.
type WAL interface {
	DurableLSN() int64
	Sync() error
}

// recLSN sentinels. A frame's recLSN is 0 when clean or when the pool has
// no WAL, lsnUnlogged while the frame carries modifications the log has not
// been told about (an open transaction), and otherwise the LSN of the
// commit record covering the frame's latest image.
const lsnUnlogged = int64(-1)

// frame is one cached page. recLSN gates durability (write-back waits until
// the log is durable past it); redoLSN is the recovery floor — the begin
// LSN of the earliest transaction whose committed images this frame still
// holds back from the device. Recovery starting redo at min(redoLSN) over
// all dirty frames is guaranteed to see every image the device is missing,
// because a transaction's images always carry LSNs at or above its begin
// record.
type frame struct {
	id      PageID
	page    *Page
	dirty   bool
	recLSN  int64
	redoLSN int64
}

// NewBufferPool returns a pool of capacity pages over disk, with the
// default retry policy. Capacity must be at least 1.
func NewBufferPool(disk Device, capacity int) (*BufferPool, error) {
	if capacity < 1 {
		return nil, fmt.Errorf("storage: buffer pool capacity %d < 1", capacity)
	}
	return &BufferPool{
		disk:     disk,
		capacity: capacity,
		retry:    DefaultRetryPolicy(),
		frames:   make(map[PageID]*list.Element, capacity),
		lru:      list.New(),
	}, nil
}

// Capacity returns the pool size in pages (the model's parameter M).
func (bp *BufferPool) Capacity() int { return bp.capacity }

// Disk returns the underlying device.
func (bp *BufferPool) Disk() Device { return bp.disk }

// SetRetryPolicy replaces the pool's retry policy. Not safe to call
// concurrently with pool operations.
func (bp *BufferPool) SetRetryPolicy(p RetryPolicy) { bp.retry = p }

// SetWAL puts the pool under write-ahead logging: from now on every dirty
// frame is held back from the device until the log covers it. Call it
// before any page is dirtied; it is not safe to call concurrently with pool
// operations.
func (bp *BufferPool) SetWAL(w WAL) { bp.wal = w }

// ensureLoggedLocked enforces WAL-before-write-back for one dirty frame:
// a frame the log has not been told about may not touch the device at all,
// and one covered by a not-yet-durable commit forces a log sync first.
func (bp *BufferPool) ensureLoggedLocked(f *frame) error {
	if bp.wal == nil {
		return nil
	}
	if f.recLSN == lsnUnlogged {
		return fmt.Errorf("storage: page %v is dirty inside an open transaction; write-back would break the WAL discipline", f.id)
	}
	if f.recLSN > bp.wal.DurableLSN() {
		bp.walSyncs.Add(1)
		if err := bp.wal.Sync(); err != nil {
			return fmt.Errorf("storage: WAL sync before write-back of %v: %w", f.id, err)
		}
	}
	return nil
}

// readPage drives one logical read against the device, retrying transient
// faults and checksum mismatches (in-flight corruption a re-read can fix)
// under the pool's retry policy. The returned error wraps the last attempt's
// failure, so errors.Is/As classification survives.
func (bp *BufferPool) readPage(id PageID) ([]byte, error) {
	var last error
	budget := bp.retry.attempts()
	for attempt := 1; attempt <= budget; attempt++ {
		if attempt > 1 {
			bp.readRetries.Add(1)
			obs.Record(obs.RecFaultRetry, obs.RecCodeRead, 0, int64(id.File), int64(id.Page))
			bp.retry.pause(attempt-1, id)
		}
		buf, err := bp.disk.ReadPage(id)
		if err == nil {
			if want, ok := bp.disk.Checksum(id); ok {
				if got := PageChecksum(buf); got != want {
					last = &ChecksumError{Page: id, Want: want, Got: got}
					continue
				}
			}
			return buf, nil
		}
		last = err
		if !IsTransient(err) && !IsChecksum(err) {
			break
		}
	}
	return nil, fmt.Errorf("storage: read of page %v gave up after retries: %w", id, last)
}

// writePage drives one write-back against the device under the retry
// policy, retrying transient faults only.
func (bp *BufferPool) writePage(id PageID, buf []byte) error {
	var last error
	budget := bp.retry.attempts()
	for attempt := 1; attempt <= budget; attempt++ {
		if attempt > 1 {
			bp.writeRetries.Add(1)
			obs.Record(obs.RecFaultRetry, obs.RecCodeWrite, 0, int64(id.File), int64(id.Page))
			bp.retry.pause(attempt-1, id)
		}
		err := bp.disk.WritePage(id, buf)
		if err == nil {
			return nil
		}
		last = err
		if !IsTransient(err) {
			break
		}
	}
	return fmt.Errorf("storage: write of page %v gave up after retries: %w", id, last)
}

// Fetch returns the page with the given id, loading it from disk on a miss.
// The returned Page aliases the cached frame: mutations become durable only
// after MarkDirty + eviction or Flush.
func (bp *BufferPool) Fetch(id PageID) (*Page, error) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	return bp.fetchLocked(id)
}

func (bp *BufferPool) fetchLocked(id PageID) (*Page, error) {
	bp.logicalReads.Add(1)
	if el, ok := bp.frames[id]; ok {
		bp.lru.MoveToFront(el)
		return el.Value.(*frame).page, nil
	}
	bp.misses.Add(1)
	buf, err := bp.readPage(id)
	if err != nil {
		return nil, err
	}
	if err := bp.evictIfFullLocked(); err != nil {
		return nil, err
	}
	f := &frame{id: id, page: pageFromBytes(buf)}
	bp.frames[id] = bp.lru.PushFront(f)
	return f.page, nil
}

// evictIfFullLocked makes room for one more frame, writing back a dirty
// victim. A victim whose write-back fails permanently is skipped — it stays
// resident and dirty so the data is not lost — and the next least-recently
// used frame is tried instead. Under a WAL, frames dirtied by an open
// transaction are likewise skipped (no-steal: an uncommitted image must
// never reach the device), and committed frames force the log durable
// before the write-back. It fails when every frame is held or unwritable.
func (bp *BufferPool) evictIfFullLocked() error {
	if bp.lru.Len() < bp.capacity {
		return nil
	}
	var lastErr error
	for el := bp.lru.Back(); el != nil; el = el.Prev() {
		f := el.Value.(*frame)
		if f.dirty && bp.wal != nil && f.recLSN == lsnUnlogged {
			continue
		}
		if f.dirty {
			if err := bp.ensureLoggedLocked(f); err != nil {
				lastErr = err
				continue
			}
			if err := bp.writePage(f.id, f.page.Bytes()); err != nil {
				lastErr = err
				continue
			}
			f.dirty = false
			f.recLSN = 0
			f.redoLSN = 0
		}
		bp.lru.Remove(el)
		delete(bp.frames, f.id)
		bp.evictions.Add(1)
		return nil
	}
	if lastErr != nil {
		return fmt.Errorf("storage: buffer pool full and no victim writable: %w", lastErr)
	}
	return fmt.Errorf("storage: buffer pool exhausted: all %d frames are held by an open transaction", bp.capacity)
}

// MarkDirty records that the cached copy of the page was modified, so it
// will be written back on eviction or Flush. Under a WAL the frame becomes
// unlogged-dirty: held in memory until the transaction layer logs its
// image and reports the covering commit LSN via SetPageLSN.
func (bp *BufferPool) MarkDirty(id PageID) error {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	el, ok := bp.frames[id]
	if !ok {
		return fmt.Errorf("storage: MarkDirty of non-resident page %v", id)
	}
	f := el.Value.(*frame)
	if bp.wal != nil {
		if !f.dirty {
			// First dirtying since the last write-back: no committed image
			// is pending yet, so the frame has no redo floor until the
			// covering transaction reports one via SetPageLSN.
			f.redoLSN = lsnUnlogged
		}
		f.recLSN = lsnUnlogged
	}
	f.dirty = true
	return nil
}

// UnloggedDirtyPages returns the pages dirtied since their last logged
// image, in ascending PageID order — the write set the transaction layer
// must log before committing.
func (bp *BufferPool) UnloggedDirtyPages() []PageID {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	var ids []PageID
	for el := bp.lru.Front(); el != nil; el = el.Next() {
		f := el.Value.(*frame)
		if f.dirty && f.recLSN == lsnUnlogged {
			ids = append(ids, f.id)
		}
	}
	sortPageIDs(ids)
	return ids
}

// SnapshotPage returns a copy of the resident page's current bytes without
// touching the logical-read counters: it is the transaction layer reading
// its own write set for logging, not query I/O.
func (bp *BufferPool) SnapshotPage(id PageID) ([]byte, error) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	el, ok := bp.frames[id]
	if !ok {
		return nil, fmt.Errorf("storage: snapshot of non-resident page %v", id)
	}
	src := el.Value.(*frame).page.Bytes()
	buf := make([]byte, len(src))
	copy(buf, src)
	return buf, nil
}

// SetPageLSN records that the log covers the frame's current content up to
// commitLSN, making it eligible for write-back once the log is durable past
// it. redoLSN is the begin LSN of the covering transaction: replaying the
// log from there reconstructs everything the frame holds back from the
// device. A frame dirtied across several transactions keeps the earliest
// redo floor until a write-back cleans it, so the checkpoint's dirty-page
// table never under-reports how far back recovery must start.
func (bp *BufferPool) SetPageLSN(id PageID, commitLSN, redoLSN int64) error {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	el, ok := bp.frames[id]
	if !ok {
		return fmt.Errorf("storage: SetPageLSN of non-resident page %v", id)
	}
	f := el.Value.(*frame)
	f.recLSN = commitLSN
	if f.redoLSN <= 0 || redoLSN < f.redoLSN {
		f.redoLSN = redoLSN
	}
	return nil
}

// DirtyPage is one entry of the pool's dirty-page table: a resident page
// whose committed content has not reached the device, with the redo floor
// recovery must start at to reconstruct it.
type DirtyPage struct {
	ID      PageID
	RedoLSN int64
}

// DirtyPageTable snapshots the frames holding committed images back from
// the device, in ascending PageID order — the DPT a fuzzy checkpoint
// persists. Frames dirtied only by a still-open transaction are excluded:
// no committed image of theirs exists yet, and the checkpoint's active-
// transaction table covers them through the transaction's begin LSN.
func (bp *BufferPool) DirtyPageTable() []DirtyPage {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	var dpt []DirtyPage
	for el := bp.lru.Front(); el != nil; el = el.Next() {
		f := el.Value.(*frame)
		if f.dirty && f.redoLSN > 0 {
			dpt = append(dpt, DirtyPage{ID: f.id, RedoLSN: f.redoLSN})
		}
	}
	sort.Slice(dpt, func(i, j int) bool { return pageIDLess(dpt[i].ID, dpt[j].ID) })
	return dpt
}

// FlushOneDirty writes back the lowest-PageID committed-dirty frame above
// prev and returns its id, releasing the frame lock between calls so the
// checkpointer can interleave with concurrent readers and writers instead
// of stalling them behind one long stop-the-world flush. Frames held by an
// open transaction are skipped (no-steal: their bytes may not touch the
// device), as are frames re-dirtied behind the cursor — the dirty-page
// table snapshot taken after the incremental pass accounts for both. ok is
// false when no eligible frame remains above prev.
func (bp *BufferPool) FlushOneDirty(prev PageID) (id PageID, ok bool, err error) {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	var victim *frame
	for el := bp.lru.Front(); el != nil; el = el.Next() {
		f := el.Value.(*frame)
		if !f.dirty || f.recLSN == lsnUnlogged || !pageIDLess(prev, f.id) {
			continue
		}
		if victim == nil || pageIDLess(f.id, victim.id) {
			victim = f
		}
	}
	if victim == nil {
		return PageID{}, false, nil
	}
	if err := bp.ensureLoggedLocked(victim); err != nil {
		return victim.id, true, err
	}
	if err := bp.writePage(victim.id, victim.page.Bytes()); err != nil {
		return victim.id, true, err
	}
	victim.dirty = false
	victim.recLSN = 0
	victim.redoLSN = 0
	return victim.id, true, nil
}

// Close makes every committed change durable and is the orderly-shutdown
// counterpart of crash recovery: it forces the log durable even when no
// dirty frame would have demanded it — commits buffered by the group-commit
// policy would otherwise be silently dropped on a clean shutdown — and then
// writes back all committed dirty frames. The pool stays usable; Close is
// idempotent.
func (bp *BufferPool) Close() error {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	if bp.wal != nil {
		if err := bp.wal.Sync(); err != nil {
			return fmt.Errorf("storage: final WAL sync on close: %w", err)
		}
	}
	return bp.flushLocked()
}

// Flush writes every dirty frame back to disk in ascending PageID order,
// leaving the frames resident. The deterministic order — rather than LRU
// recency, which depends on access history and worker interleaving — makes
// crash schedules keyed to "the n-th physical write" reproducible across
// runs. On failure it still attempts the remaining dirty frames and returns
// the first error; a frame whose write-back failed stays dirty, so a later
// Flush retries it rather than silently dropping the modification. Under a
// WAL, a frame dirtied by an open transaction is an error: Flush promises
// durability, and an uncommitted image may not be made durable.
func (bp *BufferPool) Flush() error {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	return bp.flushLocked()
}

func (bp *BufferPool) flushLocked() error {
	dirty := make([]*frame, 0, len(bp.frames))
	for el := bp.lru.Front(); el != nil; el = el.Next() {
		if f := el.Value.(*frame); f.dirty {
			dirty = append(dirty, f)
		}
	}
	sortFrames(dirty)
	var firstErr error
	for _, f := range dirty {
		if err := bp.ensureLoggedLocked(f); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if err := bp.writePage(f.id, f.page.Bytes()); err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		f.dirty = false
		f.recLSN = 0
		f.redoLSN = 0
	}
	return firstErr
}

// sortFrames orders frames by ascending PageID (file, then page).
func sortFrames(fs []*frame) {
	sort.Slice(fs, func(i, j int) bool { return pageIDLess(fs[i].id, fs[j].id) })
}

// sortPageIDs orders ids ascending (file, then page).
func sortPageIDs(ids []PageID) {
	sort.Slice(ids, func(i, j int) bool { return pageIDLess(ids[i], ids[j]) })
}

func pageIDLess(a, b PageID) bool {
	if a.File != b.File {
		return a.File < b.File
	}
	return a.Page < b.Page
}

// DropAll flushes and then empties the pool, so the next access to any page
// is a guaranteed miss. Experiments use it to start measurements cold.
// When a write-back fails, frames whose pages were flushed are marked clean
// (they will not be double-written later), nothing is dropped, and the
// error is returned — DropAll after a partial failure is safe to retry.
func (bp *BufferPool) DropAll() error {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	if err := bp.flushLocked(); err != nil {
		return err
	}
	bp.frames = make(map[PageID]*list.Element, bp.capacity)
	bp.lru.Init()
	return nil
}

// Resident reports whether the page is currently cached.
func (bp *BufferPool) Resident(id PageID) bool {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	_, ok := bp.frames[id]
	return ok
}

// Dirty reports whether the page is resident with unflushed modifications.
func (bp *BufferPool) Dirty(id PageID) bool {
	bp.mu.Lock()
	defer bp.mu.Unlock()
	el, ok := bp.frames[id]
	return ok && el.Value.(*frame).dirty
}

// Stats returns a snapshot of the pool counters. It does not take the
// frame lock; under concurrent activity the counters are each monotone but
// the snapshot as a whole is not a single linearization point.
func (bp *BufferPool) Stats() PoolStats {
	return PoolStats{
		LogicalReads: bp.logicalReads.Load(),
		Misses:       bp.misses.Load(),
		Evictions:    bp.evictions.Load(),
		ReadRetries:  bp.readRetries.Load(),
		WriteRetries: bp.writeRetries.Load(),
		WALSyncs:     bp.walSyncs.Load(),
	}
}

// ResetStats zeroes the pool counters (resident pages stay resident).
func (bp *BufferPool) ResetStats() {
	bp.logicalReads.Store(0)
	bp.misses.Store(0)
	bp.evictions.Store(0)
	bp.readRetries.Store(0)
	bp.writeRetries.Store(0)
	bp.walSyncs.Store(0)
}
