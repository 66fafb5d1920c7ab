package spatialjoin

// Snapshot-shipping tests: a replica seeded from an exported stream answers
// the equivalence query set byte-identically to the source, keeps accepting
// writes, and a torn, corrupted, or mislabeled stream is rejected loudly
// instead of seeding a silent prefix.

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"strings"
	"testing"
	"time"

	"spatialjoin/internal/storage"
)

// exportWorkload runs the full crash workload and exports a snapshot,
// returning the source database, the stream, and the final model.
func exportWorkload(t *testing.T, cfg Config) (*Database, []byte, crashModel) {
	t.Helper()
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	final := runSteps(t, db, crashSteps())
	var buf bytes.Buffer
	info, err := db.ExportSnapshot(&buf)
	if err != nil {
		t.Fatalf("ExportSnapshot: %v", err)
	}
	if info.CheckpointLSN == 0 || info.Pages == 0 {
		t.Fatalf("implausible snapshot info: %+v", info)
	}
	return db, buf.Bytes(), final
}

func TestSnapshotSeedEquivalence(t *testing.T) {
	cfg := crashConfig(1, 1)
	src, stream, final := exportWorkload(t, cfg)
	replica, info, err := SeedFromSnapshot(cfg, bytes.NewReader(stream))
	if err != nil {
		t.Fatalf("SeedFromSnapshot: %v", err)
	}
	if info.Pages == 0 {
		t.Errorf("seeded replica reports zero pages: %+v", info)
	}
	mustMatch(t, src, final, "source after export")
	mustMatch(t, replica, final, "seeded replica")

	// The source's concurrent writes after the export must not appear on
	// the replica, and the replica must accept its own.
	rs, _ := src.Collection("r")
	if _, err := rs.Insert(crashRect(10), "r10-src"); err != nil {
		t.Fatalf("source insert after export: %v", err)
	}
	rr, _ := replica.Collection("r")
	if rr.Len() != len(final.rectsR) {
		t.Errorf("replica saw the source's post-export insert: %d rects", rr.Len())
	}
	if _, err := rr.Insert(crashRect(11), "r11-replica"); err != nil {
		t.Fatalf("replica insert: %v", err)
	}
	if rr.Len() != len(final.rectsR)+1 {
		t.Errorf("replica insert not visible: %d rects", rr.Len())
	}
}

// TestSnapshotSeededReplicaRecovers crashes nothing but closes the loop:
// a replica seeded from a snapshot can itself be reopened through ordinary
// recovery, and a snapshot of the replica seeds a third equivalent copy.
func TestSnapshotSeededReplicaRecovers(t *testing.T) {
	cfg := crashConfig(1, 1)
	_, stream, final := exportWorkload(t, cfg)
	replica, _, err := SeedFromSnapshot(cfg, bytes.NewReader(stream))
	if err != nil {
		t.Fatalf("SeedFromSnapshot: %v", err)
	}
	rdb, _, err := Reopen(cfg, replica.Device())
	if err != nil {
		t.Fatalf("Reopen of seeded replica: %v", err)
	}
	mustMatch(t, rdb, final, "reopened replica")

	var second bytes.Buffer
	if _, err := rdb.ExportSnapshot(&second); err != nil {
		t.Fatalf("re-export: %v", err)
	}
	third, _, err := SeedFromSnapshot(cfg, &second)
	if err != nil {
		t.Fatalf("second-generation seed: %v", err)
	}
	mustMatch(t, third, final, "second-generation replica")
}

func TestSnapshotRejectsCorruptStreams(t *testing.T) {
	cfg := crashConfig(1, 1)
	_, stream, _ := exportWorkload(t, cfg)

	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"empty", nil, "not a snapshot"},
		{"bad magic", append([]byte("NOTSNAP\n"), stream[8:]...), "not a snapshot"},
		{"truncated header", stream[:12], "truncated snapshot header"},
		{"bad version", func() []byte {
			s := append([]byte(nil), stream...)
			s[8] = 99
			return s
		}(), "snapshot version"},
		{"torn tail", stream[:len(stream)-64], ""},
		{"flipped image byte", func() []byte {
			s := append([]byte(nil), stream...)
			s[len(s)/2] ^= 0xFF
			return s
		}(), ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := SeedFromSnapshot(cfg, bytes.NewReader(tc.data))
			if err == nil {
				t.Fatal("corrupt stream seeded a replica")
			}
			if tc.want != "" && !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestSeedFailuresReleaseResources sweeps every rejection branch of
// SeedFromSnapshot — including the deepest one, where a whole database
// opens through recovery before the checkpoint cross-check fails — and
// verifies each failure releases what it built: no half-seeded *Database
// escapes, no goroutines survive, and the very same config immediately
// seeds cleanly afterwards, so a failed seed cannot wedge a retry loop.
func TestSeedFailuresReleaseResources(t *testing.T) {
	cfg := crashConfig(1, 1)
	_, stream, final := exportWorkload(t, cfg)
	baseline := settledTestGoroutines()

	// The header's checkpoint LSN lives at bytes 12..20 of the stream
	// (after the 8-byte magic and 4-byte version). Pointing it somewhere
	// recovery will not confirm takes the only branch where the database
	// has fully opened — its pool and log must be torn down again.
	mismatched := append([]byte(nil), stream...)
	binary.LittleEndian.PutUint64(mismatched[12:],
		binary.LittleEndian.Uint64(stream[12:])+12345)

	badPageSize := cfg
	badPageSize.PageSize = cfg.PageSize * 2

	cases := []struct {
		name string
		cfg  Config
		data []byte
		want string
	}{
		{"bad magic", cfg, append([]byte("NOTSNAP\n"), stream[8:]...), "not a snapshot"},
		{"truncated header", cfg, stream[:12], "truncated snapshot header"},
		{"bad version", cfg, func() []byte {
			s := append([]byte(nil), stream...)
			s[8] = 99
			return s
		}(), "snapshot version"},
		{"torn image", cfg, stream[:len(stream)-64], ""},
		{"page size mismatch", badPageSize, stream, "snapshot page size"},
		{"checkpoint mismatch", cfg, mismatched, "names checkpoint"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			db, _, err := SeedFromSnapshot(tc.cfg, bytes.NewReader(tc.data))
			if err == nil {
				t.Fatal("rejection branch seeded a replica")
			}
			if db != nil {
				t.Error("failed seed leaked a non-nil database")
			}
			if tc.want != "" && !strings.Contains(err.Error(), tc.want) {
				t.Errorf("error %q does not mention %q", err, tc.want)
			}
		})
	}

	if after := settledTestGoroutines(); after > baseline {
		t.Errorf("goroutines settled at %d after the failure sweep, started at %d — leak", after, baseline)
	}
	replica, _, err := SeedFromSnapshot(cfg, bytes.NewReader(stream))
	if err != nil {
		t.Fatalf("clean seed after the failure sweep: %v", err)
	}
	mustMatch(t, replica, final, "replica seeded after failures")
}

// TestFullSnapshotShipsNoZeroPage exports after the export's truncating
// checkpoint has zeroed most of the log: the snapshot must ship exactly the
// device's non-zero pages, and a delta must not be mistaken for a seed.
func TestFullSnapshotShipsNoZeroPage(t *testing.T) {
	cfg := crashConfig(1, 1)
	cfg.Fault = nil
	src, stream, final := exportWorkload(t, cfg)
	snap, err := ReadSnapshot(bytes.NewReader(stream))
	if err != nil {
		t.Fatalf("ReadSnapshot: %v", err)
	}
	disk := src.Device().(*storage.Disk)
	zeroSum := storage.PageChecksum(make([]byte, cfg.PageSize))
	total, nonZero, logPages := 0, 0, 0
	for f := 0; f < disk.Files(); f++ {
		for p := 0; p < disk.NumPages(storage.FileID(f)); p++ {
			total++
			if sum, _ := disk.Checksum(storage.PageID{File: storage.FileID(f), Page: int32(p)}); sum != zeroSum {
				nonZero++
				if f == 0 {
					logPages++
				}
			}
		}
	}
	if snap.Info.Pages != nonZero || snap.Info.LogPages != logPages {
		t.Errorf("snapshot ships %d pages (%d log), want the device's %d non-zero pages (%d log)",
			snap.Info.Pages, snap.Info.LogPages, nonZero, logPages)
	}
	if nonZero >= total {
		t.Fatalf("no zeroed page on a %d-page device: the truncating checkpoint did nothing", total)
	}
	replica, err := snap.Seed(cfg)
	if err != nil {
		t.Fatalf("Seed: %v", err)
	}
	mustMatch(t, replica, final, "replica seeded from the zero-free image")

	var delta bytes.Buffer
	if _, err := src.ExportDelta(&delta, src.DurableLSN(), nil); err != nil {
		t.Fatalf("ExportDelta: %v", err)
	}
	if _, _, err := SeedFromSnapshot(cfg, &delta); err == nil || !strings.Contains(err.Error(), "cannot seed") {
		t.Errorf("seeding from a delta: err = %v, want a refusal", err)
	}
}

// settledTestGoroutines samples the goroutine count until it stops
// shrinking.
func settledTestGoroutines() int {
	best := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		time.Sleep(2 * time.Millisecond)
		n := runtime.NumGoroutine()
		if n >= best && i > 5 {
			return best
		}
		if n < best {
			best = n
		}
	}
	return best
}
