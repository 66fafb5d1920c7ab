package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"text/tabwriter"

	"spatialjoin"
	"spatialjoin/internal/datagen"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/repl"
	"spatialjoin/internal/wire"
)

// replRow is one measured catch-up: a replica position fixed right after
// a seed, a divergence committed behind it, and the bytes each of the
// three catch-up forms ships from that position.
type replRow struct {
	divergence int
	seedBytes  int
	seedPages  int
	tailBytes  int
	deltaBytes int
	deltaInfo  spatialjoin.SnapshotInfo
	fullBytes  int
	fullPages  int
}

// measureReplRow builds a fresh primary with the deterministic base
// workload, fixes a replica position by exporting a seed snapshot, commits
// divergence more inserts, and prices the three catch-up forms from that
// position: the WAL tail by the durable log bytes behind it, the snapshot
// delta by shipping it through a live replication source, and a full
// snapshot by exporting one.
func measureReplRow(seed int64, base, divergence int) (replRow, error) {
	row := replRow{divergence: divergence}
	cfg := spatialjoin.DefaultConfig()
	cfg.Workers = 1
	cfg.WAL = true
	cfg.WALGroupCommit = 8
	db, err := spatialjoin.Open(cfg)
	if err != nil {
		return row, err
	}
	defer db.Close()

	world := geom.NewRect(0, 0, 1000, 1000)
	rng := rand.New(rand.NewSource(seed))
	col, err := db.CreateCollection("r")
	if err != nil {
		return row, err
	}
	insert := func(n int) error {
		for _, r := range datagen.UniformRects(rng, n, world, 2, 30) {
			if _, err := col.Insert(r, ""); err != nil {
				return err
			}
		}
		return nil
	}
	if err := insert(base); err != nil {
		return row, err
	}
	src, err := repl.NewSource(db, repl.SourceOptions{})
	if err != nil {
		return row, err
	}
	defer src.Close()

	// Fix the replica's position: the state right after a full seed.
	var seedBuf countingWriter
	seedInfo, err := db.ExportSnapshot(&seedBuf)
	if err != nil {
		return row, err
	}
	row.seedBytes, row.seedPages = int(seedBuf), seedInfo.Pages
	position := db.DurableLSN()
	if err := insert(divergence); err != nil {
		return row, err
	}

	// A tail ships exactly the durable records behind the position. Read
	// the durable end before the delta: its checkpoint appends to the log.
	row.tailBytes = int(db.DurableLSN() - position)

	var deltaBuf bytes.Buffer
	full, err := src.StreamSnap(context.Background(), position, func(c wire.SnapChunk) error {
		_, err := deltaBuf.Write(c.Data)
		return err
	})
	if err != nil {
		return row, err
	}
	if full {
		return row, fmt.Errorf("source shipped a full snapshot where a delta was expected")
	}
	row.deltaBytes = deltaBuf.Len()
	// Decode the shipped stream to count the pages it actually carries.
	delta, err := spatialjoin.ReadSnapshot(&deltaBuf)
	if err != nil {
		return row, err
	}
	row.deltaInfo = delta.Info

	var fullBuf countingWriter
	fullInfo, err := db.ExportSnapshot(&fullBuf)
	if err != nil {
		return row, err
	}
	row.fullBytes, row.fullPages = int(fullBuf), fullInfo.Pages
	return row, nil
}

// printRepl measures what a replica's catch-up actually costs through the
// live replication source, for the three ways a replica can converge:
// tailing the WAL record by record, patching from a snapshot delta (only
// the pages dirtied behind the replica's position, plus the log), and
// re-seeding from a full snapshot. Each row rebuilds the same primary
// from the seed, fixes the replica position right after a snapshot seed,
// and diverges by a different insert count, so rows are independent and
// deterministic in the seed. The point is the shape: tail cost tracks
// the divergence, delta cost tracks the dirtied page set plus the
// retained log, and full-snapshot cost tracks the database's non-zero
// pages.
func printRepl(out io.Writer, seed int64) error {
	const baseRects = 2000
	rows := make([]replRow, 0, 3)
	for _, divergence := range []int{50, 200, 800} {
		row, err := measureReplRow(seed, baseRects, divergence)
		if err != nil {
			return fmt.Errorf("divergence %d: %w", divergence, err)
		}
		rows = append(rows, row)
	}
	fmt.Fprintf(out, "== Replica catch-up cost: WAL tail vs delta vs full snapshot (base %d rects, seed %d) ==\n",
		baseRects, seed)
	fmt.Fprintf(out, "seed snapshot at the fixed position: %d bytes, %d pages\n",
		rows[0].seedBytes, rows[0].seedPages)
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintf(w, "divergence (inserts)\ttail bytes\tdelta bytes\tdelta data pages\tdelta log pages\tfull bytes\tfull pages\t\n")
	for _, r := range rows {
		fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%d\t%d\t%d\t\n",
			r.divergence, r.tailBytes, r.deltaBytes, r.deltaInfo.Pages-r.deltaInfo.LogPages, r.deltaInfo.LogPages,
			r.fullBytes, r.fullPages)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(out, "tail ships only the records behind the position; the delta ships the dirtied")
	fmt.Fprintln(out, "pages plus the whole log; the full snapshot ships every non-zero page of the")
	fmt.Fprintln(out, "device. Page counts are shipped pages: all-zero pages are implied, not sent.")
	return nil
}

// countingWriter counts bytes without keeping them.
type countingWriter int

func (c *countingWriter) Write(p []byte) (int, error) {
	*c += countingWriter(len(p))
	return len(p), nil
}
