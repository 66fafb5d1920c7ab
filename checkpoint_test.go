package spatialjoin

// Root-level checkpoint tests: bounded recovery skips work the checkpoint
// proved durable, truncation reclaims the log without changing observable
// state, R-trees rebuilt from the heap answer exactly like the scan, and a
// fuzzy checkpoint runs safely alongside a writer.

import (
	"fmt"
	"sort"
	"sync"
	"testing"
)

// runSteps drives a workload prefix against db, failing the test on any
// step error, and returns the final model.
func runSteps(t *testing.T, db *Database, steps []crashStep) crashModel {
	t.Helper()
	for _, st := range steps {
		if err := st.run(db); err != nil {
			t.Fatalf("step %s: %v", st.name, err)
		}
	}
	return steps[len(steps)-1].model
}

// mustSelectAgree asserts tree selections on db return the byte-identical
// answer of scan selections, windowed by every stored object of s (the
// joins of every strategy are checked against the model by mustMatch).
func mustSelectAgree(t *testing.T, db *Database, label string) {
	t.Helper()
	r, _ := db.Collection("r")
	s, _ := db.Collection("s")
	for id := 0; id < s.Len(); id++ {
		window, _, err := s.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		scan, _, err := db.Select(r, window, Overlaps(), ScanStrategy)
		if err != nil {
			t.Fatalf("%s: scan select: %v", label, err)
		}
		tree, _, err := db.Select(r, window, Overlaps(), TreeStrategy)
		if err != nil {
			t.Fatalf("%s: tree select: %v", label, err)
		}
		sort.Ints(tree)
		if fmt.Sprint(tree) != fmt.Sprint(scan) {
			t.Fatalf("%s: tree select by s[%d] = %v, scan = %v", label, id, tree, scan)
		}
	}
}

// mustMatch asserts db's observable state equals the model across all four
// strategies.
func mustMatch(t *testing.T, db *Database, m crashModel, label string) {
	t.Helper()
	ok, err := stateMatches(db, m)
	if err != nil {
		t.Fatalf("%s: verifying state: %v", label, err)
	}
	if !ok {
		t.Fatalf("%s: state does not match the committed workload", label)
	}
}

// TestCheckpointBoundsReopen checkpoints mid-workload (non-truncating, so
// every record stays scannable) and checks the subsequent recovery skips
// exactly the work the checkpoint made durable while still reconstructing
// the full committed state.
func TestCheckpointBoundsReopen(t *testing.T) {
	cfg := crashConfig(1, 1)
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	steps := crashSteps()
	mid := len(steps) / 2
	runSteps(t, db, steps[:mid])
	cs, err := db.checkpoint(false)
	if err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if cs.EndLSN <= cs.BeginLSN {
		t.Fatalf("checkpoint LSNs out of order: %+v", cs)
	}
	if cs.PagesFlushed == 0 {
		t.Error("mid-workload checkpoint flushed no dirty frames")
	}
	final := runSteps(t, db, steps[mid:])

	rdb, stats, err := Reopen(cfg, db.Device())
	if err != nil {
		t.Fatalf("Reopen: %v", err)
	}
	if stats.CheckpointLSN != cs.BeginLSN {
		t.Errorf("recovery bounded by checkpoint %d, want %d", stats.CheckpointLSN, cs.BeginLSN)
	}
	if stats.RecordsSkipped == 0 {
		t.Error("recovery skipped nothing despite a covering checkpoint")
	}
	if stats.RecordsReplayed == 0 {
		t.Error("recovery replayed nothing despite post-checkpoint commits")
	}
	mustMatch(t, rdb, final, "bounded recovery")
}

// TestCheckpointTruncatesLog checkpoints after the full workload and checks
// truncation reclaims log pages, recovery starts above LSN 0, replays
// nothing, and rebuilds both collections' R-trees from the heap files named
// in the manifest so that every strategy answers like the scan.
func TestCheckpointTruncatesLog(t *testing.T) {
	cfg := crashConfig(1, 1)
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	final := runSteps(t, db, crashSteps())
	cs, err := db.Checkpoint()
	if err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if cs.PagesTruncated == 0 {
		t.Error("truncating checkpoint reclaimed no log pages")
	}
	if tot := db.CheckpointTotals(); tot.Checkpoints != 1 || tot.LastFloor != cs.RedoFloor {
		t.Errorf("CheckpointTotals = %+v, want 1 checkpoint at floor %d", tot, cs.RedoFloor)
	}

	rdb, stats, err := Reopen(cfg, db.Device())
	if err != nil {
		t.Fatalf("Reopen: %v", err)
	}
	if stats.BaseLSN == 0 {
		t.Error("recovery scanned from LSN 0 after truncation")
	}
	if stats.RecordsReplayed != 0 {
		t.Errorf("recovery replayed %d records after a quiescent checkpoint", stats.RecordsReplayed)
	}
	if rdb.RecoveryInfo() != stats {
		t.Error("RecoveryInfo does not echo the Reopen stats")
	}
	mustMatch(t, rdb, final, "post-truncation recovery")
	mustSelectAgree(t, rdb, "post-truncation recovery")
}

// TestReopenAfterPostCheckpointInsert inserts into one collection after
// the checkpoint: replay touches only that collection's heap, and both
// R-trees — the replayed and the untouched collection's — are rebuilt from
// their heaps so that every strategy answers like the scan.
func TestReopenAfterPostCheckpointInsert(t *testing.T) {
	cfg := crashConfig(1, 1)
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	steps := crashSteps()
	final := runSteps(t, db, steps)
	if _, err := db.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	r, _ := db.Collection("r")
	if _, err := r.Insert(crashRect(9), "r9"); err != nil {
		t.Fatalf("post-checkpoint insert: %v", err)
	}
	final.rectsR = append(append([]Rect(nil), final.rectsR...), crashRect(9))

	rdb, stats, err := Reopen(cfg, db.Device())
	if err != nil {
		t.Fatalf("Reopen: %v", err)
	}
	if stats.RecordsReplayed == 0 {
		t.Error("post-checkpoint insert was not replayed")
	}
	mustMatch(t, rdb, final, "post-checkpoint recovery")
	mustSelectAgree(t, rdb, "post-checkpoint recovery")
}

// TestReopenReplaysOneImagePerInsert recovers, without a checkpoint, a
// device holding n committed inserts into a collection with no join index:
// each insert's transaction logs exactly one page image — its heap page —
// so replay applies n images and the collection comes back whole.
func TestReopenReplaysOneImagePerInsert(t *testing.T) {
	const n = 40
	cfg := DefaultConfig()
	cfg.WAL = true
	cfg.WALGroupCommit = 1
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	c, err := db.CreateCollection("pts")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := c.Insert(crashRect(i), fmt.Sprintf("p%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	rdb, stats, err := Reopen(cfg, db.Device())
	if err != nil {
		t.Fatalf("Reopen: %v", err)
	}
	if stats.RecordsReplayed != n {
		t.Errorf("RecordsReplayed = %d, want %d (one heap image per insert)", stats.RecordsReplayed, n)
	}
	rc, ok := rdb.Collection("pts")
	if !ok || rc.Len() != n {
		t.Fatalf("recovered collection missing or short: ok=%v", ok)
	}
}

// TestCheckpointConcurrentWithWriters runs the workload from one goroutine
// while another loops truncating checkpoints, then verifies both the live
// database and a recovered one. Run under -race this also proves the
// protocol's locking story.
func TestCheckpointConcurrentWithWriters(t *testing.T) {
	cfg := crashConfig(2, 1)
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	steps := crashSteps()
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			if _, err := db.Checkpoint(); err != nil {
				t.Errorf("concurrent checkpoint: %v", err)
				return
			}
		}
	}()
	final := runSteps(t, db, steps)
	close(done)
	wg.Wait()
	if t.Failed() {
		return
	}
	mustMatch(t, db, final, "live database")

	rdb, _, err := Reopen(cfg, db.Device())
	if err != nil {
		t.Fatalf("Reopen: %v", err)
	}
	mustMatch(t, rdb, final, "recovery after concurrent checkpoints")
}
