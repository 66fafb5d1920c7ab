package repl

// Replication chaos: every failure mode the issue names — link killed
// mid-stream, replica crashed mid-apply, corrupted frames, the primary's
// log truncated under the replica — after which the replica must converge,
// unattended, to the primary's committed state on every strategy.

import (
	"errors"
	"net"
	"runtime"
	"testing"
	"time"
)

// setDown makes dial fail while the partition holds.
func (l *chaosLink) setDown(down bool) {
	l.mu.Lock()
	l.down = down
	l.mu.Unlock()
}

// armKill makes the next dialed connection die after the given number of
// read bytes — a deterministic mid-stream, mid-apply cut.
func (l *chaosLink) armKill(after int64) {
	l.mu.Lock()
	l.killNext = after
	l.mu.Unlock()
}

// killConn closes its own connection once a byte budget is read, so the
// failure lands mid-frame from the reader's point of view.
type killConn struct {
	net.Conn
	after int64
}

func (c *killConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.after -= int64(n)
		if c.after <= 0 {
			_ = c.Conn.Close()
		}
	}
	return n, err
}

// TestFollowerSurvivesLinkKills severs the link repeatedly while the
// primary commits: the follower must reconnect with backoff each time and
// converge once the chaos stops.
func TestFollowerSurvivesLinkKills(t *testing.T) {
	p := startPrimary(t, nil)
	link := newChaosLink(p.addr)
	f := startFollower(t, p, func(o *FollowerOptions) { o.Dial = link.dial })
	waitConverged(t, f, p)

	for i := 0; i < 8; i++ {
		p.insert(4)
		link.sever()
		time.Sleep(2 * time.Millisecond)
	}
	p.insert(4)
	waitConverged(t, f, p)
	assertEquivalent(t, f, p)
	if f.reconnects.Load() == 0 {
		t.Error("severed links produced no reconnects")
	}
}

// TestFollowerSurvivesSeedKilledMidApply cuts the very first snapshot
// stream partway through the image: the torn seed must be rejected before
// it writes a page, and the retry must converge.
func TestFollowerSurvivesSeedKilledMidApply(t *testing.T) {
	p := startPrimary(t, nil)
	link := newChaosLink(p.addr)
	link.armKill(1024) // well inside the image, past the header
	f := startFollower(t, p, func(o *FollowerOptions) { o.Dial = link.dial })
	waitConverged(t, f, p)
	assertEquivalent(t, f, p)
	if link.dialCount() < 2 {
		t.Errorf("seed survived a killed stream in %d dials, want a retry", link.dialCount())
	}
}

// TestFollowerCrashMidApplyThenRestart crashes the replica process in the
// middle of applying the stream (Stop with the link mid-flight) and
// restarts it as a fresh follower — the restart must seed and converge
// while the primary keeps committing.
func TestFollowerCrashMidApplyThenRestart(t *testing.T) {
	p := startPrimary(t, nil)
	link := newChaosLink(p.addr)
	f := startFollower(t, p, func(o *FollowerOptions) { o.Dial = link.dial })

	// Crash while chunks are in flight: commits stream as Stop lands.
	p.insert(10)
	f.Stop()
	f.Close()

	p.insert(10)
	restarted := startFollower(t, p, func(o *FollowerOptions) { o.Dial = link.dial })
	waitConverged(t, restarted, p)
	assertEquivalent(t, restarted, p)
}

// TestFollowerSurvivesFrameCorruption flips one byte in shipped frames —
// once during the seed, once during the tail — and requires the follower
// to reject the stream by checksum and re-request it clean.
func TestFollowerSurvivesFrameCorruption(t *testing.T) {
	p := startPrimary(t, nil)
	link := newChaosLink(p.addr)
	link.armCorruption(2048) // inside the snapshot image of the first conn
	f := startFollower(t, p, func(o *FollowerOptions) { o.Dial = link.dial })
	waitConverged(t, f, p)
	assertEquivalent(t, f, p)
	if link.dialCount() < 2 {
		t.Errorf("corrupt seed stream not retried: %d dials", link.dialCount())
	}

	// Now corrupt the live tail: arm the next connection, cut the current
	// one, and commit through the corrupted then the clean link.
	link.armCorruption(512)
	link.sever()
	p.insert(10)
	waitConverged(t, f, p)
	assertEquivalent(t, f, p)
}

// TestFollowerResyncsAfterLogTruncation partitions the replica, lets the
// primary commit, advance its retention pin, and truncate its log past the
// replica's position — the reconnecting replica must be told GONE, fall
// back to a snapshot delta, and converge. The delta must ship only the
// pages dirtied behind the partition, not the database.
func TestFollowerResyncsAfterLogTruncation(t *testing.T) {
	p := startPrimary(t, nil)
	link := newChaosLink(p.addr)
	f := startFollower(t, p, func(o *FollowerOptions) { o.Dial = link.dial })
	waitConverged(t, f, p)
	assertEquivalent(t, f, p)

	link.setDown(true)
	link.sever()
	p.insert(10)
	p.truncateLog()
	link.setDown(false)

	waitConverged(t, f, p)
	assertEquivalent(t, f, p)
	if f.resyncs.Load() == 0 {
		t.Fatal("truncation did not force a resync")
	}
	if got := p.src.deltas.Load(); got != 1 {
		t.Errorf("source shipped %d deltas, want 1", got)
	}
	if got := p.src.fullSnaps.Load(); got != 1 {
		t.Errorf("source shipped %d full snapshots, want only the initial seed", got)
	}
	// Catch-up cost tracks the delta, not the database: the shipped pages
	// (dirty data pages plus the post-truncation log) must be a strict
	// subset of the device.
	total := int64(p.pages())
	if shipped := f.deltaPages.Load(); shipped == 0 || shipped >= total {
		t.Errorf("delta shipped %d pages of a %d-page device, want 0 < shipped < total", shipped, total)
	}
}

// TestReplTeardownLeaksNothing is the settle test the issue asks for:
// follower Stop/Close and primary Source teardown under concurrent
// streaming must leave no goroutines behind.
func TestReplTeardownLeaksNothing(t *testing.T) {
	before := settledGoroutines()

	p := startPrimary(t, nil)
	f := startFollower(t, p, nil)
	waitConverged(t, f, p)
	p.insert(8) // teardown lands with chunks still in flight
	f.Close()
	p.stop()

	if after := settledGoroutines(); after > before {
		t.Errorf("goroutines settled at %d after teardown, started at %d — leak", after, before)
	}
}

// settledGoroutines samples runtime.NumGoroutine until the count stops
// shrinking, giving exiting goroutines time to unwind.
func settledGoroutines() int {
	best := runtime.NumGoroutine()
	for i := 0; i < 200; i++ {
		time.Sleep(5 * time.Millisecond)
		n := runtime.NumGoroutine()
		if n >= best && i > 10 {
			return best
		}
		if n < best {
			best = n
		}
	}
	return best
}

// errLinkDown is what a partitioned chaos link answers dials with.
var errLinkDown = errors.New("repl test: link is down")
