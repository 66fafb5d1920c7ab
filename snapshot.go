package spatialjoin

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"spatialjoin/internal/fault"
	"spatialjoin/internal/storage"
	"spatialjoin/internal/wal"
)

// A snapshot stream is a header followed by a storage image (see
// internal/storage/image.go). Both forms share it:
//
//	magic "SJSNAP1\n" | u32 version | u64 checkpoint LSN | u64 WAL durable LSN | u64 since LSN | image
//
// A full snapshot (since LSN 0) marks every file authoritative and seeds a
// fresh device. A delta marks only the log authoritative, carries the data
// pages dirtied since its since LSN, and patches a replica's own disk. The
// image's CRC-32C trailer covers the image, not the header; the full
// seed's checkpoint cross-check guards the header's checkpoint LSN.
var snapMagic = []byte("SJSNAP1\n")

const (
	snapVersion   = 2
	snapHeaderLen = 36
)

// SnapshotInfo describes an exported or imported snapshot or delta.
type SnapshotInfo struct {
	// CheckpointLSN is the begin LSN of the checkpoint taken immediately
	// before a full image was cut; the image is consistent as of its end.
	// A delta carries 0: its replay runs over the whole shipped log.
	CheckpointLSN wal.LSN
	// WALDurable is the log's durable tail at export — where the replica's
	// log resumes appending.
	WALDurable wal.LSN
	// SinceLSN is 0 for a full snapshot. For a delta it is the replica's
	// applied LSN the delta was cut against: every data page whose latest
	// logged image is at or above it is included.
	SinceLSN wal.LSN
	// Pages is the number of pages shipped; all-zero pages of an
	// authoritative file are implied, not shipped.
	Pages int
	// LogPages is how many of Pages are log pages.
	LogPages int
}

// ExportSnapshot checkpoints the database and streams a full, self-verifying
// snapshot to w, suitable for seeding a replica with SeedFromSnapshot. The
// checkpoint first forces everything committed onto the device and
// truncates the log, so the image is both consistent and minimal; writers
// may run concurrently — anything committed after the checkpoint's begin
// record simply rides along in the imaged log and is replayed on the
// replica. The stream ends in a CRC-32C trailer, so a torn or truncated
// copy fails loudly at import instead of silently seeding a prefix.
func (db *Database) ExportSnapshot(w io.Writer) (SnapshotInfo, error) {
	cs, err := db.checkpoint(true)
	if err != nil {
		return SnapshotInfo{}, err
	}
	fault.CrashPoint("snapshot.export")
	return db.writeSnapshot(w, SnapshotInfo{CheckpointLSN: cs.BeginLSN}, nil)
}

// ExportDelta streams the pages in pages plus the entire write-ahead log to
// w as a snapshot delta. The caller — a replication source — is responsible
// for the protocol around it: checkpoint first so committed content is on
// the device, derive pages from the log's image records since the replica's
// applied LSN, and keep the log pinned (RetainWAL) so truncation cannot
// outrun that derivation. The log ships authoritative: the receiver zeroes
// whatever log pages the delta does not carry, then replays the shipped log
// end to end, which rewinds any page content newer than the shipped prefix
// back to a consistent state the subsequent tail stream rebuilds from.
func (db *Database) ExportDelta(w io.Writer, since wal.LSN, pages []storage.PageID) (SnapshotInfo, error) {
	if db.wal == nil {
		return SnapshotInfo{}, fmt.Errorf("spatialjoin: ExportDelta requires Config.WAL")
	}
	if since == 0 {
		return SnapshotInfo{}, fmt.Errorf("spatialjoin: a delta needs a since LSN above 0")
	}
	return db.writeSnapshot(w, SnapshotInfo{SinceLSN: since}, pages)
}

// writeSnapshot is the one snapshot writer: the header, then an image that
// ships every file whole for a full snapshot, or the log whole plus pages
// for a delta.
func (db *Database) writeSnapshot(w io.Writer, info SnapshotInfo, pages []storage.PageID) (SnapshotInfo, error) {
	info.WALDurable = db.wal.DurableLSN()
	hdr := make([]byte, snapHeaderLen)
	copy(hdr, snapMagic)
	binary.LittleEndian.PutUint32(hdr[8:], snapVersion)
	binary.LittleEndian.PutUint64(hdr[12:], uint64(info.CheckpointLSN))
	binary.LittleEndian.PutUint64(hdr[20:], uint64(info.WALDurable))
	binary.LittleEndian.PutUint64(hdr[28:], uint64(info.SinceLSN))
	if _, err := w.Write(hdr); err != nil {
		return info, err
	}
	full := info.SinceLSN == 0
	ids, err := storage.WriteImage(w, db.Device(), pages, func(f storage.FileID) bool {
		return full || f == wal.LogFileID
	})
	info.Pages, info.LogPages = countShipped(ids)
	return info, err
}

// Snapshot is a snapshot stream read and verified in full. Nothing has
// been written anywhere until Seed or Patch applies it.
type Snapshot struct {
	Info SnapshotInfo
	img  *storage.Image
}

// ReadSnapshot is the one snapshot reader: it checks the header, then reads
// the image through its trailer and verifies it (checksum, page geometry,
// entry order) before returning, so a torn or corrupt stream is rejected
// before it can touch a device.
func ReadSnapshot(r io.Reader) (*Snapshot, error) {
	hdr := make([]byte, snapHeaderLen)
	if _, err := io.ReadFull(r, hdr[:8]); err != nil || !bytes.Equal(hdr[:8], snapMagic) {
		return nil, fmt.Errorf("spatialjoin: stream is not a snapshot")
	}
	if _, err := io.ReadFull(r, hdr[8:]); err != nil {
		return nil, fmt.Errorf("spatialjoin: truncated snapshot header: %w", err)
	}
	if v := binary.LittleEndian.Uint32(hdr[8:]); v != snapVersion {
		return nil, fmt.Errorf("spatialjoin: snapshot version %d, want %d", v, snapVersion)
	}
	s := &Snapshot{Info: SnapshotInfo{
		CheckpointLSN: wal.LSN(binary.LittleEndian.Uint64(hdr[12:])),
		WALDurable:    wal.LSN(binary.LittleEndian.Uint64(hdr[20:])),
		SinceLSN:      wal.LSN(binary.LittleEndian.Uint64(hdr[28:])),
	}}
	var err error
	if s.img, err = storage.ReadImage(r); err != nil {
		return nil, err
	}
	s.Info.Pages, s.Info.LogPages = countShipped(s.img.Pages())
	return s, nil
}

// Seed materializes a fresh database from a full snapshot: a brand-new
// healthy device is written from the image, then opened through ordinary
// checkpoint-bounded recovery — the imaged log carries the checkpoint
// manifest and whatever committed past it. cfg plays the role it does for
// Reopen and must match the exporter's page geometry; cfg.Fault, when set,
// wraps the replica's device so chaos harnesses can torment the seeded copy
// too.
func (s *Snapshot) Seed(cfg Config) (*Database, error) {
	if s.Info.SinceLSN != 0 {
		return nil, fmt.Errorf("spatialjoin: a delta since LSN %d cannot seed a database", s.Info.SinceLSN)
	}
	if s.img.PageSize() != cfg.PageSize {
		return nil, fmt.Errorf("spatialjoin: snapshot page size %d != configured %d",
			s.img.PageSize(), cfg.PageSize)
	}
	disk := storage.NewDisk(cfg.PageSize)
	if err := s.img.Apply(disk); err != nil {
		return nil, err
	}
	var device storage.Device = disk
	if cfg.Fault != nil {
		device = fault.Wrap(device, *cfg.Fault)
	}
	db, stats, err := Reopen(cfg, device)
	if err != nil {
		return nil, err
	}
	if stats.CheckpointLSN != s.Info.CheckpointLSN {
		// The device opened, so it must be closed: a seed that leaks its
		// half-built database keeps the log and pool frames alive.
		db.Close()
		return nil, fmt.Errorf("spatialjoin: snapshot names checkpoint %d but recovery found %d (corrupt or mismatched stream)",
			s.Info.CheckpointLSN, stats.CheckpointLSN)
	}
	return db, nil
}

// Patch writes the snapshot onto a replica's raw disk in place. The caller
// must have closed the database using the disk first and must reopen it
// through full-log recovery (ReopenAt with floor 1) after: the shipped log
// is the only authority on which of the patched pages' contents are
// committed.
func (s *Snapshot) Patch(disk *storage.Disk) error { return s.img.Apply(disk) }

// SeedFromSnapshot reads a full snapshot stream and seeds a fresh database
// from it (ReadSnapshot, then Seed).
func SeedFromSnapshot(cfg Config, r io.Reader) (*Database, SnapshotInfo, error) {
	s, err := ReadSnapshot(r)
	if err != nil {
		return nil, SnapshotInfo{}, err
	}
	db, err := s.Seed(cfg)
	return db, s.Info, err
}

// countShipped splits shipped pages into the total and the log's share.
func countShipped(ids []storage.PageID) (pages, logPages int) {
	for _, id := range ids {
		if id.File == wal.LogFileID {
			logPages++
		}
	}
	return len(ids), logPages
}
