package wal

import (
	"encoding/binary"
	"fmt"

	"spatialjoin/internal/storage"
)

// A fuzzy checkpoint bounds recovery without stopping writers. The
// protocol, in LSN order:
//
//  1. RecCheckpointBegin is appended at LSN Lb.
//  2. The buffer pool's committed-dirty frames are flushed incrementally
//     (ascending PageID, one frame latch at a time), shrinking the
//     dirty-page table while transactions keep running.
//  3. RecCheckpointEnd is appended carrying the residual dirty-page table
//     (page → redo floor), the active-transaction table (txn → begin LSN),
//     the catalog manifest, and the next transaction id; then the log is
//     forced durable. Only a durable end record makes the checkpoint real.
//  4. Log pages wholly below min(DPT floor, Lb, oldest active begin) are
//     zeroed: nothing below that LSN can ever be needed for redo.
//
// Recovery replays a committed image at LSN L onto page P iff
// L ≥ min(Lb, oldest active begin) or P is in the DPT with DPT[P] ≤ L;
// everything else is provably already on the device and is skipped.
// In-flight transactions may straddle the boundary — the active table plus
// the no-steal pool make that safe: an uncommitted image is never on the
// device, and its eventual commit lies above the checkpoint's floor.

// DirtyPage is one dirty-page-table entry of a checkpoint: a page whose
// committed content had not reached the device, and the LSN redo must
// start at to reconstruct it.
type DirtyPage struct {
	Page   storage.PageID
	RecLSN LSN
}

// ActiveTxn is one active-transaction-table entry: a transaction that had
// begun but not yet finished (committed or aborted) when the checkpoint's
// tables were cut.
type ActiveTxn struct {
	Txn      uint64
	BeginLSN LSN
}

// Manifest is the catalog snapshot a checkpoint carries. Truncation
// destroys catalog records below the floor, so the manifest — not the
// record stream — is the authoritative list of pre-checkpoint objects;
// post-checkpoint registrations still arrive as ordinary records.
type Manifest struct {
	Collections []NewCollection
	JoinIndices []NewJoinIndex
}

// Checkpoint is the decoded payload of a RecCheckpointEnd record.
type Checkpoint struct {
	BeginLSN LSN
	NextTxn  uint64
	Active   []ActiveTxn
	DPT      []DirtyPage
	Manifest Manifest
}

// RedoFloor returns the LSN recovery redo must start at: the minimum over
// the checkpoint begin, every dirty page's recLSN, and every active
// transaction's begin LSN. Log pages wholly below it are dead.
func (cp *Checkpoint) RedoFloor() LSN {
	floor := cp.BeginLSN
	for _, d := range cp.DPT {
		if d.RecLSN < floor {
			floor = d.RecLSN
		}
	}
	for _, a := range cp.Active {
		if a.BeginLSN < floor {
			floor = a.BeginLSN
		}
	}
	return floor
}

// replayStart returns the LSN above which every committed image is
// replayed unconditionally: the checkpoint begin, lowered to the oldest
// straddling transaction's begin so a transaction whose images landed just
// below Lb is never clipped.
func (cp *Checkpoint) replayStart() LSN {
	start := cp.BeginLSN
	for _, a := range cp.Active {
		if a.BeginLSN < start {
			start = a.BeginLSN
		}
	}
	return start
}

func putU64(buf []byte, v uint64) []byte {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	return append(buf, b[:]...)
}

func getU64(buf []byte) (uint64, []byte, error) {
	if len(buf) < 8 {
		return 0, nil, fmt.Errorf("wal: truncated checkpoint payload")
	}
	return binary.LittleEndian.Uint64(buf), buf[8:], nil
}

func putCount(buf []byte, n int) []byte {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], uint32(n))
	return append(buf, b[:]...)
}

func getCount(buf []byte) (int, []byte, error) {
	if len(buf) < 4 {
		return 0, nil, fmt.Errorf("wal: truncated checkpoint payload")
	}
	n := int(binary.LittleEndian.Uint32(buf))
	if n > maxDataLen {
		return 0, nil, fmt.Errorf("wal: checkpoint table of %d entries overruns payload", n)
	}
	return n, buf[4:], nil
}

// EncodeCheckpoint serializes a checkpoint payload for RecCheckpointEnd.
func EncodeCheckpoint(cp Checkpoint) []byte {
	buf := putU64(nil, uint64(cp.BeginLSN))
	buf = putU64(buf, cp.NextTxn)
	buf = putCount(buf, len(cp.Active))
	for _, a := range cp.Active {
		buf = putU64(buf, a.Txn)
		buf = putU64(buf, uint64(a.BeginLSN))
	}
	buf = putCount(buf, len(cp.DPT))
	for _, d := range cp.DPT {
		buf = putFile(buf, d.Page.File)
		buf = putCount(buf, int(d.Page.Page))
		buf = putU64(buf, uint64(d.RecLSN))
	}
	buf = putCount(buf, len(cp.Manifest.Collections))
	for _, c := range cp.Manifest.Collections {
		buf = append(buf, EncodeNewCollection(c)...)
	}
	buf = putCount(buf, len(cp.Manifest.JoinIndices))
	for _, j := range cp.Manifest.JoinIndices {
		buf = append(buf, EncodeNewJoinIndex(j)...)
	}
	return buf
}

// DecodeCheckpoint parses a RecCheckpointEnd payload.
func DecodeCheckpoint(data []byte) (Checkpoint, error) {
	var cp Checkpoint
	var err error
	var v uint64
	if v, data, err = getU64(data); err != nil {
		return cp, err
	}
	cp.BeginLSN = LSN(v)
	if cp.NextTxn, data, err = getU64(data); err != nil {
		return cp, err
	}
	var n int
	if n, data, err = getCount(data); err != nil {
		return cp, err
	}
	for i := 0; i < n; i++ {
		var a ActiveTxn
		if a.Txn, data, err = getU64(data); err != nil {
			return cp, err
		}
		if v, data, err = getU64(data); err != nil {
			return cp, err
		}
		a.BeginLSN = LSN(v)
		cp.Active = append(cp.Active, a)
	}
	if n, data, err = getCount(data); err != nil {
		return cp, err
	}
	for i := 0; i < n; i++ {
		var d DirtyPage
		if d.Page.File, data, err = getFile(data); err != nil {
			return cp, err
		}
		var p int
		if p, data, err = getCount(data); err != nil {
			return cp, err
		}
		d.Page.Page = int32(p)
		if v, data, err = getU64(data); err != nil {
			return cp, err
		}
		d.RecLSN = LSN(v)
		cp.DPT = append(cp.DPT, d)
	}
	if n, data, err = getCount(data); err != nil {
		return cp, err
	}
	for i := 0; i < n; i++ {
		var c NewCollection
		if c.Name, data, err = getString(data); err != nil {
			return cp, err
		}
		if c.HeapFile, data, err = getFile(data); err != nil {
			return cp, err
		}
		cp.Manifest.Collections = append(cp.Manifest.Collections, c)
	}
	if n, data, err = getCount(data); err != nil {
		return cp, err
	}
	for i := 0; i < n; i++ {
		var j NewJoinIndex
		if j.R, data, err = getString(data); err != nil {
			return cp, err
		}
		if j.S, data, err = getString(data); err != nil {
			return cp, err
		}
		if j.Operator, data, err = getString(data); err != nil {
			return cp, err
		}
		if j.PairFile, data, err = getFile(data); err != nil {
			return cp, err
		}
		cp.Manifest.JoinIndices = append(cp.Manifest.JoinIndices, j)
	}
	return cp, nil
}

// AppendCheckpointBegin appends the begin marker of a fuzzy checkpoint and
// returns its LSN — the Lb every later skip decision is measured against.
func (l *Log) AppendCheckpointBegin() LSN {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.append(Record{Type: RecCheckpointBegin})
}

// AppendCheckpointEnd appends the checkpoint payload and forces the log
// durable: a checkpoint the recovery scanner may trust exists only once
// this returns nil.
func (l *Log) AppendCheckpointEnd(cp Checkpoint) (LSN, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	lsn := l.append(Record{Type: RecCheckpointEnd, Data: EncodeCheckpoint(cp)})
	if err := l.syncLocked(); err != nil {
		return lsn, err
	}
	l.stats.Checkpoints++
	return lsn, nil
}

// TruncateBelow zeroes every log page whose payload lies wholly below keep,
// reclaiming the space bounded recovery no longer needs. Zeroed pages look
// like unwritten allocations to the scanner; the first surviving page's
// firstRec offset re-synchronizes parsing at a record boundary. The scan
// resumes where the previous truncation stopped, stops at the first page
// it must keep, and is conservative about anything unreadable — under-
// truncating is always safe.
func (l *Log) TruncateBelow(keep LSN) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.retain > 0 && l.retain < keep {
		keep = l.retain
	}
	n := l.dev.NumPages(LogFileID)
	zeroed := 0
	zero := make([]byte, l.pageSize)
	for p := l.truncFrom; int(p) < n; p++ {
		id := storage.PageID{File: LogFileID, Page: p}
		buf, err := l.dev.ReadPage(id)
		if err != nil {
			return zeroed, nil // unreadable: keep it and everything after
		}
		if want, ok := l.dev.Checksum(id); !ok || storage.PageChecksum(buf) != want {
			return zeroed, nil
		}
		used := int(binary.LittleEndian.Uint32(buf[0:]))
		if used == 0 {
			l.truncFrom = p + 1 // already dead (failed write or prior truncation)
			continue
		}
		if used > len(buf)-pageHeader {
			return zeroed, nil
		}
		start := LSN(binary.LittleEndian.Uint64(buf[4:]))
		if start+LSN(used) > keep {
			return zeroed, nil
		}
		if err := l.dev.WritePage(id, zero); err != nil {
			return zeroed, fmt.Errorf("wal: truncating log page %v: %w", id, err)
		}
		l.stats.PageWrites++
		l.stats.TruncatedPages++
		l.truncFrom = p + 1
		zeroed++
	}
	return zeroed, nil
}

// Retain pins truncation: TruncateBelow will not zero records at or above
// lsn until the pin moves or clears (lsn 0). A replication source holds the
// pin at its reader's position so checkpoint truncation cannot outrun it —
// the write-ahead-log cousin of a replication slot. An over-slow reader is
// the caller's problem: release the pin and let the reader fall back to a
// snapshot resync rather than retain the log forever.
func (l *Log) Retain(lsn LSN) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.retain = lsn
}
