package storage

import (
	"fmt"
)

// RID is a record identifier: the page and slot where the record lives.
type RID struct {
	Page PageID
	Slot int32
}

// String implements fmt.Stringer.
func (r RID) String() string { return fmt.Sprintf("%v:s%d", r.Page, r.Slot) }

// HeapFile stores variable-length records in slotted pages of one file,
// appending to the last page and allocating a new page when a record does
// not fit. A fill factor below 1 reproduces the paper's average space
// utilization l (Table 3: 0.75) by capping how much of each page's payload
// may be used.
type HeapFile struct {
	pool       *BufferPool
	file       FileID
	fillFactor float64
	lastPage   PageID
	hasPage    bool
	numRecords int
}

// NewHeapFile creates an empty heap file on the pool's disk. fillFactor must
// be in (0, 1]; records are placed on a page only while the page's used
// payload stays below fillFactor × page size.
func NewHeapFile(pool *BufferPool, fillFactor float64) (*HeapFile, error) {
	if fillFactor <= 0 || fillFactor > 1 {
		return nil, fmt.Errorf("storage: fill factor %g out of (0,1]", fillFactor)
	}
	return &HeapFile{
		pool:       pool,
		file:       pool.Disk().CreateFile(),
		fillFactor: fillFactor,
	}, nil
}

// OpenHeapFile reattaches to an existing heap file after a restart,
// rebuilding the append state (last page, record count) from the pages on
// disk. A page whose header is all zeroes was allocated but never written
// back before a crash; it holds no committed records and appends resume on
// the last initialized page before it.
func OpenHeapFile(pool *BufferPool, file FileID, fillFactor float64) (*HeapFile, error) {
	if fillFactor <= 0 || fillFactor > 1 {
		return nil, fmt.Errorf("storage: fill factor %g out of (0,1]", fillFactor)
	}
	h := &HeapFile{pool: pool, file: file, fillFactor: fillFactor}
	n := pool.Disk().NumPages(file)
	for pg := 0; pg < n; pg++ {
		id := PageID{File: file, Page: int32(pg)}
		p, err := pool.Fetch(id)
		if err != nil {
			return nil, err
		}
		if !p.initialized() {
			continue
		}
		h.lastPage, h.hasPage = id, true
		h.numRecords += p.NumRecords()
	}
	return h, nil
}

// File returns the underlying file id.
func (h *HeapFile) File() FileID { return h.file }

// NumRecords returns the number of records appended so far.
func (h *HeapFile) NumRecords() int { return h.numRecords }

// NumPages returns the number of pages the file occupies.
func (h *HeapFile) NumPages() int { return h.pool.Disk().NumPages(h.file) }

// budget returns the payload budget per page under the fill factor.
func (h *HeapFile) budget() int {
	return int(h.fillFactor * float64(h.pool.Disk().PageSize()-pageHeaderSize))
}

// Append stores rec and returns its RID. Records larger than the per-page
// budget are rejected.
func (h *HeapFile) Append(rec []byte) (RID, error) {
	if len(rec)+slotSize > h.budget() {
		return RID{}, fmt.Errorf("storage: record of %d bytes exceeds page budget %d", len(rec), h.budget())
	}
	if h.hasPage {
		p, err := h.pool.Fetch(h.lastPage)
		if err != nil {
			return RID{}, err
		}
		if h.usedPayload(p)+len(rec)+slotSize <= h.budget() && p.FreeSpace() >= len(rec) {
			// Mark the frame dirty before touching its bytes: under a WAL
			// that makes it unlogged, so a concurrent checkpoint flush
			// (FlushOneDirty) skips it instead of copying a half-written
			// page to the device.
			if err := h.pool.MarkDirty(h.lastPage); err != nil {
				return RID{}, err
			}
			slot, err := p.Insert(rec)
			if err == nil {
				h.numRecords++
				return RID{Page: h.lastPage, Slot: int32(slot)}, nil
			}
			if err != ErrPageFull {
				return RID{}, err
			}
		}
	}
	id, err := h.pool.Disk().AllocPage(h.file)
	if err != nil {
		return RID{}, err
	}
	h.lastPage, h.hasPage = id, true
	p, err := h.pool.Fetch(id)
	if err != nil {
		return RID{}, err
	}
	// A freshly allocated page arrives zeroed; initialize its header.
	fresh, err := NewPage(h.pool.Disk().PageSize())
	if err != nil {
		return RID{}, err
	}
	copy(p.Bytes(), fresh.Bytes())
	slot, err := p.Insert(rec)
	if err != nil {
		return RID{}, err
	}
	if err := h.pool.MarkDirty(id); err != nil {
		return RID{}, err
	}
	h.numRecords++
	return RID{Page: id, Slot: int32(slot)}, nil
}

// usedPayload returns the bytes of payload (records + slots) in use on p.
func (h *HeapFile) usedPayload(p *Page) int {
	return (p.free() - pageHeaderSize) + p.NumRecords()*slotSize
}

// Get returns a copy of the record at rid, fetching its page through the
// buffer pool (and therefore charging I/O on a miss).
func (h *HeapFile) Get(rid RID) ([]byte, error) {
	p, err := h.pool.Fetch(rid.Page)
	if err != nil {
		return nil, err
	}
	rec, err := p.Record(int(rid.Slot))
	if err != nil {
		return nil, err
	}
	out := make([]byte, len(rec))
	copy(out, rec)
	return out, nil
}

// Scan calls f for every record in file order. Scanning fetches each page
// once. f receives the RID and the raw record bytes (valid only during the
// call); returning false stops the scan.
func (h *HeapFile) Scan(f func(RID, []byte) bool) error {
	n := h.NumPages()
	for pg := 0; pg < n; pg++ {
		id := PageID{File: h.file, Page: int32(pg)}
		p, err := h.pool.Fetch(id)
		if err != nil {
			return err
		}
		for s := 0; s < p.NumRecords(); s++ {
			rec, err := p.Record(s)
			if err != nil {
				return err
			}
			if !f(RID{Page: id, Slot: int32(s)}, rec) {
				return nil
			}
		}
	}
	return nil
}
