package wal

import (
	"bytes"
	"reflect"
	"testing"

	"spatialjoin/internal/storage"
)

// TestCheckpointCodecRoundTrip checks the end-record payload carries every
// table through encode/decode unchanged.
func TestCheckpointCodecRoundTrip(t *testing.T) {
	cp := Checkpoint{
		BeginLSN: 12345,
		NextTxn:  42,
		Active: []ActiveTxn{
			{Txn: 7, BeginLSN: 11111},
			{Txn: 9, BeginLSN: 12000},
		},
		DPT: []DirtyPage{
			{Page: storage.PageID{File: 2, Page: 5}, RecLSN: 9000},
			{Page: storage.PageID{File: 3, Page: 0}, RecLSN: 10500},
		},
		Manifest: Manifest{
			Collections: []NewCollection{{Name: "roads", HeapFile: 1}},
			JoinIndices: []NewJoinIndex{{R: "roads", S: "cities", Operator: "overlaps", PairFile: 4}},
		},
	}
	got, err := DecodeCheckpoint(EncodeCheckpoint(cp))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, cp) {
		t.Fatalf("round trip mismatch:\n got  %+v\n want %+v", got, cp)
	}
	if _, err := DecodeCheckpoint(EncodeCheckpoint(cp)[:10]); err == nil {
		t.Error("truncated payload decoded without error")
	}
}

// TestCheckpointFloors checks RedoFloor and replayStart honor the DPT and
// active-transaction minima.
func TestCheckpointFloors(t *testing.T) {
	cp := Checkpoint{BeginLSN: 1000}
	if cp.RedoFloor() != 1000 || cp.replayStart() != 1000 {
		t.Fatalf("empty-table floors = %d/%d, want 1000/1000", cp.RedoFloor(), cp.replayStart())
	}
	cp.DPT = []DirtyPage{{Page: storage.PageID{File: 1, Page: 1}, RecLSN: 400}}
	cp.Active = []ActiveTxn{{Txn: 3, BeginLSN: 700}}
	if cp.RedoFloor() != 400 {
		t.Errorf("RedoFloor = %d, want 400 (DPT floor)", cp.RedoFloor())
	}
	if cp.replayStart() != 700 {
		t.Errorf("replayStart = %d, want 700 (oldest active begin, DPT does not lower it)", cp.replayStart())
	}
}

// commitImage logs one committed transaction writing img to pid.
func commitImage(t *testing.T, l *Log, txn uint64, pid storage.PageID, img []byte) LSN {
	t.Helper()
	l.Begin(txn)
	l.AppendImage(txn, pid, img)
	lsn, err := l.Commit(txn)
	if err != nil {
		t.Fatal(err)
	}
	return lsn
}

// TestCheckpointBoundsRedo builds a log with pre-checkpoint transactions
// already on the device, checkpoints with an empty DPT, and checks recovery
// skips everything below the begin marker — and still recovers the device
// to identical bytes.
func TestCheckpointBoundsRedo(t *testing.T) {
	dev, l := newLogOnDisk(t, 1)
	dataFile := dev.CreateFile()
	pid, err := dev.AllocPage(dataFile)
	if err != nil {
		t.Fatal(err)
	}
	imgA := bytes.Repeat([]byte{0xA1}, 256)
	imgB := bytes.Repeat([]byte{0xB2}, 256)
	commitImage(t, l, 1, pid, imgA)
	// The "flush": the committed content reaches the device before the
	// checkpoint cuts its tables, so the DPT is empty.
	if err := dev.WritePage(pid, imgA); err != nil {
		t.Fatal(err)
	}
	lb := l.AppendCheckpointBegin()
	if _, err := l.AppendCheckpointEnd(Checkpoint{BeginLSN: lb, NextTxn: 2}); err != nil {
		t.Fatal(err)
	}
	commitImage(t, l, 2, pid, imgB) // post-checkpoint: must replay

	res, err := RecoverWith(dev, Options{GroupCommit: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Checkpoint == nil || res.Checkpoint.BeginLSN != lb {
		t.Fatalf("recovery found checkpoint %+v, want begin %d", res.Checkpoint, lb)
	}
	if res.Stats.RecordsSkipped != 1 {
		t.Errorf("RecordsSkipped = %d, want 1 (the pre-checkpoint image)", res.Stats.RecordsSkipped)
	}
	if res.Stats.RecordsReplayed != 1 {
		t.Errorf("RecordsReplayed = %d, want 1 (the post-checkpoint image)", res.Stats.RecordsReplayed)
	}
	got, err := dev.ReadPage(pid)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, imgB) {
		t.Error("device page does not hold the newest committed image after bounded recovery")
	}

	// Ignoring the checkpoint must replay everything and agree on state.
	res0, err := RecoverWith(dev, Options{GroupCommit: 1, IgnoreCheckpoints: true})
	if err != nil {
		t.Fatal(err)
	}
	if res0.Checkpoint != nil || res0.Stats.RecordsSkipped != 0 || res0.Stats.RecordsReplayed != 2 {
		t.Errorf("full recovery stats: %+v", res0.Stats)
	}
}

// TestCheckpointDPTForcesReplay checks an image below the begin marker is
// still replayed when the DPT says its page never reached the device.
func TestCheckpointDPTForcesReplay(t *testing.T) {
	dev, l := newLogOnDisk(t, 1)
	dataFile := dev.CreateFile()
	pid, err := dev.AllocPage(dataFile)
	if err != nil {
		t.Fatal(err)
	}
	img := bytes.Repeat([]byte{0xC3}, 256)
	begin := l.Begin(1)
	l.AppendImage(1, pid, img)
	if _, err := l.Commit(1); err != nil {
		t.Fatal(err)
	}
	// No device write: the page is still dirty at checkpoint time, so the
	// DPT carries it with the transaction's begin LSN as its redo floor.
	lb := l.AppendCheckpointBegin()
	cp := Checkpoint{
		BeginLSN: lb,
		NextTxn:  2,
		DPT:      []DirtyPage{{Page: pid, RecLSN: begin}},
	}
	if _, err := l.AppendCheckpointEnd(cp); err != nil {
		t.Fatal(err)
	}
	res, err := RecoverWith(dev, Options{GroupCommit: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.RecordsReplayed != 1 || res.Stats.RecordsSkipped != 0 {
		t.Fatalf("stats: %+v", res.Stats)
	}
	got, err := dev.ReadPage(pid)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, img) {
		t.Error("dirty-page-table image was not replayed")
	}
	if res.Stats.PagesRestored != 1 {
		t.Errorf("PagesRestored = %d, want 1", res.Stats.PagesRestored)
	}
}

// TestActiveTxnStraddlesCheckpoint checks a transaction whose images land
// below the begin marker but whose commit lands above it is fully replayed:
// the active-transaction table lowers the replay start.
func TestActiveTxnStraddlesCheckpoint(t *testing.T) {
	dev, l := newLogOnDisk(t, 1)
	dataFile := dev.CreateFile()
	pid, err := dev.AllocPage(dataFile)
	if err != nil {
		t.Fatal(err)
	}
	img := bytes.Repeat([]byte{0xD4}, 256)
	//sjlint:ignore txnatomic t.Fatal exits abandon the test txn; the committed path closes it
	begin := l.Begin(5)
	l.AppendImage(5, pid, img)
	lb := l.AppendCheckpointBegin()
	cp := Checkpoint{
		BeginLSN: lb,
		NextTxn:  6,
		Active:   []ActiveTxn{{Txn: 5, BeginLSN: begin}},
	}
	if _, err := l.AppendCheckpointEnd(cp); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Commit(5); err != nil {
		t.Fatal(err)
	}
	res, err := RecoverWith(dev, Options{GroupCommit: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.RecordsReplayed != 1 || res.Stats.RecordsSkipped != 0 {
		t.Fatalf("stats: %+v (straddling txn's image must not be skipped)", res.Stats)
	}
	got, err := dev.ReadPage(pid)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, img) {
		t.Error("straddling transaction's image was not replayed")
	}
}

// TestTruncateBelowReclaimsAndResyncs checks truncation zeroes only pages
// wholly below the floor, recovery re-synchronizes at the first surviving
// page's record boundary, and post-truncation state matches.
func TestTruncateBelowReclaimsAndResyncs(t *testing.T) {
	dev, l := newLogOnDisk(t, 1)
	dataFile := dev.CreateFile()
	pid, err := dev.AllocPage(dataFile)
	if err != nil {
		t.Fatal(err)
	}
	// Enough committed traffic to span several 256-byte log pages.
	var img []byte
	for i := 0; i < 8; i++ {
		img = bytes.Repeat([]byte{byte(0x10 + i)}, 256)
		commitImage(t, l, uint64(i+1), pid, img)
	}
	if err := dev.WritePage(pid, img); err != nil {
		t.Fatal(err)
	}
	lb := l.AppendCheckpointBegin()
	if _, err := l.AppendCheckpointEnd(Checkpoint{BeginLSN: lb, NextTxn: 9}); err != nil {
		t.Fatal(err)
	}
	before := dev.Stats().Writes
	n, err := l.TruncateBelow(lb)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("truncation reclaimed no pages despite several dead log pages")
	}
	if got := l.Stats().TruncatedPages; got != int64(n) {
		t.Errorf("TruncatedPages stat = %d, want %d", got, n)
	}
	if dev.Stats().Writes != before+int64(n) {
		t.Errorf("device writes during truncation = %d, want %d", dev.Stats().Writes-before, n)
	}

	res, err := RecoverWith(dev, Options{GroupCommit: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.BaseLSN == 0 {
		t.Error("BaseLSN = 0 after truncation, want the resynchronized boundary")
	}
	if res.Checkpoint == nil || res.Checkpoint.BeginLSN != lb {
		t.Fatalf("checkpoint lost by truncation: %+v", res.Checkpoint)
	}
	got, err := dev.ReadPage(pid)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, img) {
		t.Error("device state wrong after truncated-log recovery")
	}
	// A second truncation resumes past the zeroed prefix without rework.
	if _, err := l.TruncateBelow(lb); err != nil {
		t.Fatal(err)
	}

	// The recovered log still accepts and recovers new transactions.
	l2 := res.Log
	img2 := bytes.Repeat([]byte{0xEE}, 256)
	commitImage(t, l2, 20, pid, img2)
	res2, err := RecoverWith(dev, Options{GroupCommit: 1})
	if err != nil {
		t.Fatal(err)
	}
	got2, err := dev.ReadPage(pid)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got2, img2) {
		t.Errorf("post-truncation append lost: %+v", res2.Stats)
	}
}

// TestAbortRecordClosesTxn checks an aborted transaction is classified as
// aborted — not discarded — and its images are never replayed.
func TestAbortRecordClosesTxn(t *testing.T) {
	dev, l := newLogOnDisk(t, 1)
	dataFile := dev.CreateFile()
	pid, err := dev.AllocPage(dataFile)
	if err != nil {
		t.Fatal(err)
	}
	l.Begin(3)
	l.AppendImage(3, pid, bytes.Repeat([]byte{0xFF}, 256))
	l.Abort(3)
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	if got := l.Stats().Aborts; got != 1 {
		t.Errorf("Aborts stat = %d, want 1", got)
	}
	rec, err := RecoverWith(dev, Options{GroupCommit: 1})
	if err != nil {
		t.Fatal(err)
	}
	rstats := rec.Stats
	if rstats.TxnsAborted != 1 || rstats.TxnsDiscarded != 0 || rstats.RecordsReplayed != 0 {
		t.Errorf("recovery stats: %+v", rstats)
	}
}

// TestLogCloseForcesDurable checks Close drains the group-commit buffer: a
// commit batched under a large group size survives a clean shutdown.
func TestLogCloseForcesDurable(t *testing.T) {
	dev, l := newLogOnDisk(t, 64) // batch far more commits than we make
	dataFile := dev.CreateFile()
	pid, err := dev.AllocPage(dataFile)
	if err != nil {
		t.Fatal(err)
	}
	img := bytes.Repeat([]byte{0x77}, 256)
	l.Begin(1)
	l.AppendImage(1, pid, img)
	if _, err := l.Commit(1); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	rec, err := RecoverWith(dev, Options{GroupCommit: 1})
	if err != nil {
		t.Fatal(err)
	}
	rstats := rec.Stats
	if rstats.TxnsCommitted != 1 || rstats.RecordsReplayed != 1 {
		t.Errorf("commit lost across clean Close: %+v", rstats)
	}
}
