package wal

import (
	"encoding/binary"
	"errors"
	"fmt"

	"spatialjoin/internal/storage"
)

// RecoveryStats summarizes one recovery pass.
type RecoveryStats struct {
	RecordsScanned  int64 // complete, checksum-valid records found in the log
	RecordsReplayed int64 // page images of committed transactions applied
	RecordsSkipped  int64 // committed images the checkpoint proved already on the device
	PagesRestored   int64 // distinct pages written during replay
	TxnsCommitted   int64 // transactions with a durable commit record
	TxnsAborted     int64 // transactions closed by an explicit abort record
	TxnsDiscarded   int64 // transactions begun but never durably finished
	TornTailBytes   int64 // stream bytes after the last complete record
	TornPages       int64 // log pages whose checksum did not verify
	BaseLSN         LSN   // stream offset recovery scanned from (>0 after truncation)
	CheckpointLSN   LSN   // begin LSN of the checkpoint recovery bounded redo by; 0 = none
	NextTxn         uint64
	// NextApplyFloor is the safe Options.ApplyFloor for the *next*
	// recovery of this device once everything scanned here has been
	// applied: the stream end, lowered to the begin LSN of the oldest
	// transaction still open at the end of the scan (its images are not
	// applied yet and must be replayed once its commit arrives). Full-page
	// redo is idempotent, so the lowering only ever re-replays.
	NextApplyFloor LSN
}

// ErrNotALog reports that the device's first file does not begin with a WAL
// header; recovery refuses to touch such a device.
var ErrNotALog = errors.New("wal: device file 0 does not start with a log header")

// Options configures RecoverWith.
type Options struct {
	// GroupCommit is the recovered log's commits-per-sync policy.
	GroupCommit int
	// IgnoreCheckpoints makes recovery replay every committed image from
	// the scanned base, as if no checkpoint existed. Harnesses use it to
	// assert that bounded and full recovery reconstruct identical state.
	// It cannot resurrect records a checkpoint already truncated away.
	IgnoreCheckpoints bool
	// ApplyFloor, when positive, replaces checkpoint-bounded redo with an
	// explicit cut: committed images below the floor are skipped
	// unconditionally and everything at or above it is replayed
	// unconditionally, never consulting the dirty-page table. Checkpoint
	// decoding (manifest, transaction table) is unaffected. Replication
	// followers need this because a shipped checkpoint's DPT describes the
	// *primary's* flush state — bounding a follower's redo by it would
	// skip images the follower never applied. A follower that has applied
	// everything below LSN n recovers with ApplyFloor = n; one whose
	// device state is unknown (fresh seed, delta resync) uses ApplyFloor = 1
	// to replay the whole surviving stream.
	ApplyFloor LSN
}

// Result is everything RecoverWith hands back to the catalog layer.
type Result struct {
	Log *Log
	// Catalog holds the committed RecNewCollection/RecNewJoinIndex records
	// found in the scanned stream, in LSN order. Objects registered before
	// a truncating checkpoint appear only in the checkpoint's manifest.
	Catalog []Record
	// Checkpoint is the last complete checkpoint, nil when none was found
	// (or checkpoints were ignored).
	Checkpoint *Checkpoint
	Stats      RecoveryStats
}

// RecoverWith scans the log on dev and replays exactly the committed images
// the device is missing. With a checkpoint in the log, redo is bounded: an
// image below the checkpoint is replayed only when the dirty-page table
// says its page had not been flushed, or when a straddling transaction's
// begin LSN reaches down to it; everything else is counted as skipped.
//
// Torn tails are discarded, not erased: the log never rewrites a durable
// page, so the garbage bytes stay on the device and are superseded by the
// stream offsets of post-recovery appends (see the package comment).
func RecoverWith(dev storage.Device, opts Options) (*Result, error) {
	res := &Result{}
	stats := &res.Stats
	base, stream, tornPages, err := scanStream(dev)
	if err != nil {
		return res, err
	}
	stats.TornPages = tornPages
	stats.BaseLSN = base
	records, consumed := parseStream(base, stream)
	stats.RecordsScanned = int64(len(records))
	stats.TornTailBytes = int64(len(stream)) - consumed
	if len(records) == 0 {
		return res, ErrNotALog
	}
	if base == 0 && (records[0].Type != RecHeader || string(records[0].Data) != string(magic)) {
		return res, ErrNotALog
	}

	committed := make(map[uint64]bool)
	begun := make(map[uint64]LSN)
	aborted := make(map[uint64]bool)
	var maxTxn uint64
	for _, r := range records {
		if r.Txn > maxTxn {
			maxTxn = r.Txn
		}
		switch r.Type {
		case RecBegin:
			if _, dup := begun[r.Txn]; !dup {
				begun[r.Txn] = r.LSN
			}
		case RecCommit:
			committed[r.Txn] = true
		case RecAbort:
			aborted[r.Txn] = true
		}
	}
	for txn := range begun {
		switch {
		case committed[txn]:
			stats.TxnsCommitted++
		case aborted[txn]:
			stats.TxnsAborted++
		default:
			stats.TxnsDiscarded++
		}
	}
	stats.NextTxn = maxTxn + 1

	if !opts.IgnoreCheckpoints {
		for i := len(records) - 1; i >= 0; i-- {
			if records[i].Type != RecCheckpointEnd {
				continue
			}
			cp, err := DecodeCheckpoint(records[i].Data)
			if err != nil {
				// A checkpoint that does not decode is treated as absent;
				// an older one (or none) bounds redo instead.
				continue
			}
			res.Checkpoint = &cp
			break
		}
	}
	// The safe floor for the next bounded re-recovery: the stream end,
	// lowered to the oldest still-open transaction's begin (images of a
	// transaction that commits later must be replayed then). Checkpoint
	// Active entries cover straddlers whose begin record was truncated.
	floor := base + consumed
	for txn, beginLSN := range begun {
		if !committed[txn] && !aborted[txn] && beginLSN < floor {
			floor = beginLSN
		}
	}
	if cp := res.Checkpoint; cp != nil {
		for _, a := range cp.Active {
			if !committed[a.Txn] && !aborted[a.Txn] && a.BeginLSN < floor {
				floor = a.BeginLSN
			}
		}
	}
	stats.NextApplyFloor = floor

	replayStart := LSN(0)
	dpt := make(map[storage.PageID]LSN)
	if cp := res.Checkpoint; cp != nil {
		stats.CheckpointLSN = cp.BeginLSN
		if cp.NextTxn > stats.NextTxn {
			stats.NextTxn = cp.NextTxn
		}
		replayStart = cp.replayStart()
		for _, d := range cp.DPT {
			dpt[d.Page] = d.RecLSN
		}
	}

	restored := make(map[storage.PageID]bool)
	for _, r := range records {
		if !committed[r.Txn] {
			continue
		}
		switch r.Type {
		case RecImage:
			if opts.ApplyFloor > 0 {
				if r.LSN < opts.ApplyFloor {
					// The caller vouches the device holds this image.
					stats.RecordsSkipped++
					continue
				}
			} else if res.Checkpoint != nil && r.LSN < replayStart {
				if floor, inDPT := dpt[r.Page]; !inDPT || r.LSN < floor {
					// The checkpoint flushed this page past r.LSN: the
					// device already holds content at least this new.
					stats.RecordsSkipped++
					continue
				}
			}
			if err := replayImage(dev, r); err != nil {
				return res, err
			}
			stats.RecordsReplayed++
			if !restored[r.Page] {
				restored[r.Page] = true
				stats.PagesRestored++
			}
		case RecNewCollection, RecNewJoinIndex:
			res.Catalog = append(res.Catalog, r)
		}
	}

	l := newLog(dev, opts.GroupCommit)
	l.tailStart = base + consumed
	l.durable = base + consumed
	res.Log = l
	return res, nil
}

// scanStream reads every log page in order and assembles the logical record
// stream, returning the stream's base LSN. In an untruncated log the base
// is 0; after checkpoint truncation the leading pages are zeroed and the
// first surviving page's firstRec offset re-synchronizes the scan at a
// record boundary. Pages that never made it to the device (zero-filled
// allocations) or arrive corrupted are skipped and reported; a page whose
// startLSN rewinds below the assembled length marks a post-recovery resume,
// so the superseded garbage is truncated away before appending its payload.
func scanStream(dev storage.Device) (LSN, []byte, int64, error) {
	n := dev.NumPages(LogFileID)
	base := LSN(-1)
	var stream []byte
	var torn int64
	for p := 0; p < n; p++ {
		id := storage.PageID{File: LogFileID, Page: int32(p)}
		buf, err := dev.ReadPage(id)
		if err != nil {
			if storage.IsChecksum(err) {
				// A page torn by the crash; everything it held is past the
				// last durable sync, so skipping it discards only tail bytes.
				torn++
				continue
			}
			return 0, nil, 0, fmt.Errorf("wal: reading log page %v: %w", id, err)
		}
		// Verify against the recorded checksum explicitly: fault devices
		// return corrupted bytes rather than erroring (end-to-end
		// verification is the reader's job), and trusting a torn page's
		// header fields could truncate the stream at a garbage startLSN.
		if want, ok := dev.Checksum(id); !ok || storage.PageChecksum(buf) != want {
			torn++
			continue
		}
		used := int(binary.LittleEndian.Uint32(buf[0:]))
		if used == 0 {
			continue // allocated but never written, or truncated away
		}
		if used > len(buf)-pageHeader {
			torn++
			continue
		}
		start := LSN(binary.LittleEndian.Uint64(buf[4:]))
		if base < 0 {
			// First surviving page: every byte before its first record
			// boundary is the tail of a record whose head was truncated
			// with the pages below — only parseable bytes join the stream.
			first := binary.LittleEndian.Uint32(buf[12:])
			if first == noFirstRec || int(first) >= used {
				continue
			}
			base = start + LSN(first)
			stream = append(stream, buf[pageHeader+first:pageHeader+uint32(used)]...)
			continue
		}
		switch {
		case start < base:
			// Below the resync point: stale garbage; trust nothing after.
			return base, stream, torn, nil
		case start < base+LSN(len(stream)):
			stream = stream[:start-base]
		case start > base+LSN(len(stream)):
			// A gap means the pages between were lost wholesale; nothing
			// after them can be trusted to be contiguous.
			return base, stream, torn, nil
		}
		stream = append(stream, buf[pageHeader:pageHeader+used]...)
	}
	if base < 0 {
		base = 0
	}
	return base, stream, torn, nil
}

// parseStream decodes records until the stream ends or turns invalid,
// returning the records and the number of stream bytes consumed by
// complete, checksum-valid records. Record LSNs are absolute: stream byte i
// sits at LSN base+i. Everything past the consumed point is a torn tail.
func parseStream(base LSN, stream []byte) ([]Record, int64) {
	var records []Record
	off := 0
	for off+recHeaderSize+recTrailer <= len(stream) {
		hdr := stream[off:]
		lsn := LSN(binary.LittleEndian.Uint64(hdr[0:]))
		typ := RecordType(hdr[8])
		dataLen := int(binary.LittleEndian.Uint32(hdr[25:]))
		if lsn != base+LSN(off) || typ < RecHeader || typ > RecCheckpointEnd || dataLen > maxDataLen {
			break
		}
		end := off + recHeaderSize + dataLen + recTrailer
		if end > len(stream) {
			break
		}
		body := stream[off : end-recTrailer]
		want := binary.LittleEndian.Uint32(stream[end-recTrailer:])
		if storage.PageChecksum(body) != want {
			break
		}
		data := make([]byte, dataLen)
		copy(data, stream[off+recHeaderSize:end-recTrailer])
		records = append(records, Record{
			LSN:  lsn,
			Type: typ,
			Txn:  binary.LittleEndian.Uint64(hdr[9:]),
			Page: storage.PageID{
				File: storage.FileID(binary.LittleEndian.Uint32(hdr[17:])),
				Page: int32(binary.LittleEndian.Uint32(hdr[21:])),
			},
			Data: data,
		})
		off = end
	}
	return records, int64(off)
}

// replayImage writes one committed after-image back to the device, creating
// the file and allocating pages as needed: the crash may have landed before
// the first write-back ever materialized them.
func replayImage(dev storage.Device, r Record) error {
	if len(r.Data) != dev.PageSize() {
		return fmt.Errorf("wal: image for %v has %d bytes, device page size is %d",
			r.Page, len(r.Data), dev.PageSize())
	}
	for int(r.Page.Page) >= dev.NumPages(r.Page.File) {
		if _, err := dev.AllocPage(r.Page.File); err == nil {
			continue
		}
		// AllocPage rejects unknown files; file IDs are dense, so creating
		// files in order eventually materializes the target. Overshooting
		// it means the failure had another cause.
		if id := dev.CreateFile(); id > r.Page.File {
			return fmt.Errorf("wal: cannot materialize file %d for replay of %v", r.Page.File, r.Page)
		}
	}
	if err := dev.WritePage(r.Page, r.Data); err != nil {
		return fmt.Errorf("wal: replaying image onto %v: %w", r.Page, err)
	}
	return nil
}
