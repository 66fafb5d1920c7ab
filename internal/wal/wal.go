// Package wal implements the write-ahead log behind crash-consistent
// updates: a redo-only, CRC-32C-checksummed, LSN-ordered log persisted
// through its own append-only region of the simulated disk.
//
// The log owns the first file of the device (LogFileID) and treats it as an
// append-only page device: log pages are allocated and written exactly once,
// never rewritten, so any prefix of successfully written pages is durable no
// matter where a crash lands. Each page carries the logical stream offset of
// its first payload byte, which lets a reopened log resume after a torn tail
// without rewriting history: records appended after recovery carry offsets
// that supersede the discarded garbage, and the scanner reconciles the two
// on the next recovery.
//
// The redo discipline is full-page after-images under no-steal buffering:
// transactions mutate pages only in the buffer pool, the commit path appends
// one image per dirtied page followed by a commit record, and the pool
// refuses to write back any frame whose latest changes the log does not yet
// cover (storage.BufferPool's WAL hook). Recovery therefore never needs undo:
// it replays the images of committed transactions in LSN order and discards
// everything else.
package wal

import (
	"encoding/binary"
	"fmt"
	"sync"

	"spatialjoin/internal/fault"
	"spatialjoin/internal/storage"
)

// LSN is a log sequence number: the byte offset of a record in the logical
// log stream. It is an alias of int64 so the storage layer can hold
// recovery LSNs without importing this package.
type LSN = int64

// LogFileID is the device file the log owns. The log must be created before
// any other file so that a recovering process can find it without a
// catalog — the catalog itself lives in the log.
const LogFileID storage.FileID = 0

// RecordType tags one log record.
type RecordType uint8

const (
	// RecHeader is the first record of every log: it carries the magic
	// payload that identifies the file as a WAL.
	RecHeader RecordType = iota + 1
	// RecBegin opens a transaction.
	RecBegin
	// RecImage is a full after-image of one page, the redo unit.
	RecImage
	// RecCommit makes a transaction's preceding records redo-eligible.
	RecCommit
	// RecNewCollection registers a collection: name plus the heap file
	// it owns (see EncodeNewCollection).
	RecNewCollection
	// RecNewJoinIndex registers a precomputed join index: the two
	// collection names, the operator name, and the backing pair file.
	RecNewJoinIndex
	// RecAbort closes a transaction without committing it: its preceding
	// records are never redo-eligible. Recovery would discard them anyway
	// (no commit record), but the explicit abort lets the checkpoint's
	// active-transaction table stay exact and gives the transaction layer
	// a release point static analysis can verify.
	RecAbort
	// RecCheckpointBegin marks the LSN a fuzzy checkpoint started at.
	RecCheckpointBegin
	// RecCheckpointEnd carries the checkpoint payload: dirty-page table,
	// active-transaction table, and the catalog/index manifest (see
	// EncodeCheckpoint). A checkpoint counts only when its end record is
	// durable.
	RecCheckpointEnd
)

// String implements fmt.Stringer.
func (t RecordType) String() string {
	switch t {
	case RecHeader:
		return "header"
	case RecBegin:
		return "begin"
	case RecImage:
		return "image"
	case RecCommit:
		return "commit"
	case RecNewCollection:
		return "newcollection"
	case RecNewJoinIndex:
		return "newjoinindex"
	case RecAbort:
		return "abort"
	case RecCheckpointBegin:
		return "checkpoint-begin"
	case RecCheckpointEnd:
		return "checkpoint-end"
	default:
		return fmt.Sprintf("RecordType(%d)", uint8(t))
	}
}

// magic is the RecHeader payload; a first record that does not carry it
// means the file is not a log and recovery must not touch the device.
var magic = []byte("SJWAL1")

// Record is one decoded log record.
type Record struct {
	LSN  LSN
	Type RecordType
	Txn  uint64
	Page storage.PageID // meaningful for RecImage only
	Data []byte         // page image or catalog payload
}

// Page layout: [u32 used][u64 startLSN][u32 firstRec][payload ...]. used is
// the number of payload bytes; startLSN is the logical stream offset of the
// first payload byte; firstRec is the payload offset of the first record
// that *begins* in this page (noFirstRec when every byte continues a record
// started earlier). A page with used == 0 is an unwritten allocation and
// contributes nothing to the stream.
//
// firstRec exists for log truncation: a checkpoint zeroes whole pages below
// the redo floor, and the first surviving page may open mid-record — its
// head lost with the truncated pages. The scanner re-synchronizes at
// startLSN+firstRec, the first byte that starts a parseable record.
const (
	pageHeader = 16
	noFirstRec = ^uint32(0)
)

// Record layout within the stream:
// [u64 lsn][u8 type][u64 txn][i32 file][i32 page][u32 dataLen][data][u32 crc]
// where crc is the CRC-32C (the shared page codec) of every preceding byte
// of the record.
const (
	recHeaderSize = 8 + 1 + 8 + 4 + 4 + 4
	recTrailer    = 4
	// maxDataLen bounds a record payload during parsing; anything larger is
	// treated as a torn tail rather than trusted.
	maxDataLen = 1 << 24
)

// Stats counts the log's activity. PageWrites are physical page transfers
// to the device (they also appear in the device's DiskStats.Writes, keeping
// the I/O accounting exact); PaddingBytes is the page space wasted by the
// append-only discipline (each sync seals its final partial page).
type Stats struct {
	Records      int64
	Commits      int64
	Aborts       int64
	Syncs        int64
	PageWrites   int64
	BytesLogged  int64
	PaddingBytes int64
	// Checkpoints counts durable checkpoint end records;
	// TruncatedPages counts log pages zeroed below the redo floor.
	Checkpoints    int64
	TruncatedPages int64
}

// Log is the append-only write-ahead log. It is safe for concurrent use:
// the buffer pool calls Sync and DurableLSN from eviction paths while the
// update path appends.
type Log struct {
	mu       sync.Mutex
	dev      storage.Device
	pageSize int
	group    int // commits per sync; <= 1 means sync every commit

	tail      []byte // appended records not yet written to the device
	tailStart LSN    // stream offset of tail[0]
	durable   LSN    // everything below this offset is on the device
	pending   int    // commits appended since the last sync
	bounds    []LSN  // start LSNs of buffered records, for page firstRec
	truncFrom int32  // first log page the next TruncateBelow examines
	retain    LSN    // TruncateBelow keeps records at or above this pin

	stats    Stats
	observer func(batchCommits, pagesWritten int)
}

// Create makes a fresh log on dev, which must be empty: the log claims the
// device's first file so recovery can locate it. groupCommit is the number
// of commits batched per sync (values <= 1 sync on every commit).
func Create(dev storage.Device, groupCommit int) (*Log, error) {
	id := dev.CreateFile()
	if id != LogFileID {
		return nil, fmt.Errorf("wal: log must own file %d of the device, got %d (device not empty)", LogFileID, id)
	}
	l := newLog(dev, groupCommit)
	l.append(Record{Type: RecHeader, Data: magic})
	if err := l.Sync(); err != nil {
		return nil, fmt.Errorf("wal: writing log header: %w", err)
	}
	return l, nil
}

func newLog(dev storage.Device, groupCommit int) *Log {
	if groupCommit < 1 {
		groupCommit = 1
	}
	return &Log{dev: dev, pageSize: dev.PageSize(), group: groupCommit}
}

// payloadCap returns the payload bytes one log page holds.
func (l *Log) payloadCap() int { return l.pageSize - pageHeader }

// File returns the device file the log writes.
func (l *Log) File() storage.FileID { return LogFileID }

// Stats returns a snapshot of the log counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats
}

// SetObserver registers a callback invoked after each successful sync with
// the number of commits the sync batched and the log pages it wrote — the
// bridge the metrics layer uses to feed a group-commit batch-size
// histogram. The callback runs with the log lock held, so it must be cheap
// and must not call back into the log.
func (l *Log) SetObserver(fn func(batchCommits, pagesWritten int)) {
	l.mu.Lock()
	l.observer = fn
	l.mu.Unlock()
}

// DurableLSN returns the stream offset below which every record is on the
// device. It implements the storage.WAL hook.
func (l *Log) DurableLSN() LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.durable
}

// append encodes rec at the current end of the stream and returns its LSN.
// The record stays buffered until the next Sync.
func (l *Log) append(rec Record) LSN {
	lsn := l.tailStart + LSN(len(l.tail))
	var hdr [recHeaderSize]byte
	binary.LittleEndian.PutUint64(hdr[0:], uint64(lsn))
	hdr[8] = byte(rec.Type)
	binary.LittleEndian.PutUint64(hdr[9:], rec.Txn)
	binary.LittleEndian.PutUint32(hdr[17:], uint32(rec.Page.File))
	binary.LittleEndian.PutUint32(hdr[21:], uint32(rec.Page.Page))
	binary.LittleEndian.PutUint32(hdr[25:], uint32(len(rec.Data)))
	body := append(hdr[:], rec.Data...)
	var crc [recTrailer]byte
	binary.LittleEndian.PutUint32(crc[:], storage.PageChecksum(body))
	l.bounds = append(l.bounds, lsn)
	l.tail = append(l.tail, body...)
	l.tail = append(l.tail, crc[:]...)
	l.stats.Records++
	l.stats.BytesLogged += int64(len(body) + recTrailer)
	return lsn
}

// Begin appends a begin record for txn.
func (l *Log) Begin(txn uint64) LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.append(Record{Type: RecBegin, Txn: txn})
}

// AppendImage appends a full after-image of page id for txn.
func (l *Log) AppendImage(txn uint64, id storage.PageID, image []byte) LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	img := make([]byte, len(image))
	copy(img, image)
	return l.append(Record{Type: RecImage, Txn: txn, Page: id, Data: img})
}

// AppendCatalog appends a catalog record (RecNewCollection or
// RecNewJoinIndex) for txn.
func (l *Log) AppendCatalog(txn uint64, typ RecordType, payload []byte) (LSN, error) {
	if typ != RecNewCollection && typ != RecNewJoinIndex {
		return 0, fmt.Errorf("wal: %v is not a catalog record type", typ)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.append(Record{Type: typ, Txn: txn, Data: payload}), nil
}

// Commit appends the commit record for txn and, per the group-commit
// policy, forces the log durable. The returned LSN covers every record of
// the transaction: once the log is durable past it, the whole transaction
// is redo-eligible.
func (l *Log) Commit(txn uint64) (LSN, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	lsn := l.append(Record{Type: RecCommit, Txn: txn})
	l.stats.Commits++
	l.pending++
	if l.pending >= l.group {
		if err := l.syncLocked(); err != nil {
			return lsn, err
		}
	}
	return lsn, nil
}

// Abort appends an abort record for txn, closing it without committing:
// none of its records will ever be redo-eligible. The transaction layer
// calls it on every failed update path so a checkpoint's active-transaction
// table holds only transactions that may still commit.
func (l *Log) Abort(txn uint64) LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.stats.Aborts++
	return l.append(Record{Type: RecAbort, Txn: txn})
}

// Close forces every appended record durable — the orderly-shutdown sync
// that keeps group-commit-buffered transactions from being dropped. The
// log stays usable; Close is idempotent.
func (l *Log) Close() error { return l.Sync() }

// Sync forces every appended record onto the device. It implements the
// storage.WAL hook the buffer pool calls before writing back a dirty frame.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.syncLocked()
}

// syncLocked writes the buffered tail to freshly allocated log pages in
// ascending order. Pages are never rewritten: the remainder of the final
// partial page is sealed as padding, so a crash can tear only the page
// being written, and every earlier page stays durable.
func (l *Log) syncLocked() error {
	if len(l.tail) == 0 {
		l.pending = 0
		return nil
	}
	fault.CrashPoint("wal.sync")
	l.stats.Syncs++
	batch := l.pending
	pages := 0
	room := l.payloadCap()
	for len(l.tail) > 0 {
		n := len(l.tail)
		if n > room {
			n = room
		}
		id, err := l.dev.AllocPage(LogFileID)
		if err != nil {
			return fmt.Errorf("wal: extending log: %w", err)
		}
		// The first buffered record boundary inside this page's payload
		// window, so a scanner can re-synchronize here after truncation.
		// Boundaries are consumed only after the page write succeeds: a
		// failed write is retried onto a fresh page, which must carry the
		// same boundary.
		first := noFirstRec
		consumed := 0
		chunkEnd := l.tailStart + LSN(n)
		for consumed < len(l.bounds) && l.bounds[consumed] < chunkEnd {
			if first == noFirstRec {
				first = uint32(l.bounds[consumed] - l.tailStart)
			}
			consumed++
		}
		buf := make([]byte, l.pageSize)
		binary.LittleEndian.PutUint32(buf[0:], uint32(n))
		binary.LittleEndian.PutUint64(buf[4:], uint64(l.tailStart))
		binary.LittleEndian.PutUint32(buf[12:], first)
		copy(buf[pageHeader:], l.tail[:n])
		if err := l.dev.WritePage(id, buf); err != nil {
			// The failed page stays allocated with used == 0; the scanner
			// skips it and a retried sync allocates a fresh successor.
			return fmt.Errorf("wal: log append: %w", err)
		}
		l.bounds = l.bounds[consumed:]
		l.stats.PageWrites++
		pages++
		fault.CrashPoint("wal.sync.page")
		if n < room {
			l.stats.PaddingBytes += int64(room - n)
		}
		l.tailStart += LSN(n)
		l.tail = l.tail[n:]
	}
	l.durable = l.tailStart
	l.pending = 0
	if l.observer != nil {
		l.observer(batch, pages)
	}
	fault.CrashPoint("wal.synced")
	return nil
}
