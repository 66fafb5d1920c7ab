package repl

// Replication round-trip tests: a primary sjoind-shaped server (the real
// internal/server fronting a Source) and a Follower on a loopback
// connection. Convergence is asserted the way the root package's crash
// tests assert recovery: the replica must answer the strategy table
// identically to the primary and carry the same dataset fingerprint.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"spatialjoin"
	"spatialjoin/internal/obs"
	"spatialjoin/internal/server"
	"spatialjoin/internal/storage"
	"spatialjoin/internal/wire"

	"encoding/binary"
)

// replConfig is the shared geometry both ends open with: small pages so
// the workload spans many of them, immediate group commit so the durable
// LSN tracks every commit deterministically.
func replConfig() spatialjoin.Config {
	cfg := spatialjoin.DefaultConfig()
	cfg.PageSize = 512
	cfg.BufferPages = 64
	cfg.Workers = 1
	cfg.WAL = true
	cfg.WALGroupCommit = 1
	return cfg
}

// wRect is the i-th deterministic workload rectangle (the crash_test
// spread: some pairs overlap, some do not).
func wRect(i int) spatialjoin.Rect {
	x := float64((i * 137) % 900)
	y := float64((i * 211) % 900)
	w := float64(20 + (i*53)%80)
	h := float64(20 + (i*29)%80)
	return spatialjoin.NewRect(x, y, x+w, y+h)
}

// primary is a live primary: database, replication source, and a wire
// server on an ephemeral loopback listener.
type primary struct {
	t    *testing.T
	db   *spatialjoin.Database
	r, s *spatialjoin.Collection
	src  *Source
	srv  *server.Server
	addr string
	n    int // next workload rectangle index

	stopOnce sync.Once
	done     chan error
}

// startPrimary opens a primary with an initial workload, a join index (so
// the replica can answer IndexStrategy), and a serving Source.
func startPrimary(t *testing.T, metrics *obs.Registry) *primary {
	t.Helper()
	db, err := spatialjoin.Open(replConfig())
	if err != nil {
		t.Fatal(err)
	}
	p := &primary{t: t, db: db, done: make(chan error, 1)}
	if p.r, err = db.CreateCollection("r"); err != nil {
		t.Fatal(err)
	}
	if p.s, err = db.CreateCollection("s"); err != nil {
		t.Fatal(err)
	}
	p.insert(30)
	if _, _, err := db.BuildJoinIndex(p.r, p.s, spatialjoin.Overlaps()); err != nil {
		t.Fatal(err)
	}
	p.src, err = NewSource(db, SourceOptions{
		PollInterval:   200 * time.Microsecond,
		HeartbeatEvery: 2 * time.Millisecond,
		Metrics:        metrics,
	})
	if err != nil {
		t.Fatal(err)
	}
	p.srv = server.New(db, server.Options{Repl: p.src})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p.addr = ln.Addr().String()
	go func() { p.done <- p.srv.Serve(ln) }()
	t.Cleanup(p.stop)
	return p
}

// stop tears the primary down; safe to call more than once, and tests
// that measure goroutine settling call it before sampling.
func (p *primary) stop() {
	p.stopOnce.Do(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := p.srv.Shutdown(ctx); err != nil {
			p.t.Errorf("primary shutdown: %v", err)
		}
		if err := <-p.done; err != nil && err != server.ErrServerClosed {
			p.t.Errorf("primary serve: %v", err)
		}
		p.src.Close()
		if err := p.db.Close(); err != nil {
			p.t.Errorf("primary close: %v", err)
		}
	})
}

// insert commits n workload rectangles, alternating collections — each a
// transaction the tail stream must ship.
func (p *primary) insert(n int) {
	p.t.Helper()
	for i := 0; i < n; i++ {
		k := p.n
		p.n++
		col := p.r
		if k%2 == 1 {
			col = p.s
		}
		if _, err := col.Insert(wRect(k), fmt.Sprintf("w%d", k)); err != nil {
			p.t.Fatalf("primary insert %d: %v", k, err)
		}
	}
}

// truncateLog advances the source's retention pin to the durable end and
// checkpoints, truncating the log under any follower that has not kept up.
func (p *primary) truncateLog() {
	p.t.Helper()
	if err := p.src.Advance(); err != nil {
		p.t.Fatalf("source advance: %v", err)
	}
	if _, err := p.db.Checkpoint(); err != nil {
		p.t.Fatalf("primary checkpoint: %v", err)
	}
}

// pages counts every page on the primary's device.
func (p *primary) pages() int {
	disk := p.db.Device().(*storage.Disk)
	total := 0
	for f := 0; f < disk.Files(); f++ {
		total += disk.NumPages(storage.FileID(f))
	}
	return total
}

// startFollower builds and starts a follower against the primary.
func startFollower(t *testing.T, p *primary, mutate func(*FollowerOptions)) *Follower {
	t.Helper()
	opts := FollowerOptions{
		Addr:        p.addr,
		Config:      replConfig(),
		BackoffBase: time.Millisecond,
		BackoffMax:  20 * time.Millisecond,
	}
	if mutate != nil {
		mutate(&opts)
	}
	f, err := NewFollower(opts)
	if err != nil {
		t.Fatal(err)
	}
	f.Start()
	t.Cleanup(f.Close)
	return f
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// waitConverged blocks until the follower serves reads and its visible
// watermark reaches the primary's durable end. The primary must be
// quiesced by the caller.
func waitConverged(t *testing.T, f *Follower, p *primary) {
	t.Helper()
	target := p.db.DurableLSN()
	waitFor(t, fmt.Sprintf("replica convergence to LSN %d", target), func() bool {
		_, release, err := f.Acquire()
		if err != nil {
			return false
		}
		// Holding the read lock keeps the watermark paired with the
		// database being served.
		defer release()
		return f.visible.Load() >= int64(target)
	})
}

// fingerprintDB hashes every geometry's bounds in id order across both
// collections — the same dataset fingerprint cmd/sjoind banners.
func fingerprintDB(t *testing.T, db *spatialjoin.Database) uint64 {
	t.Helper()
	h := fnv.New64a()
	var buf [32]byte
	for _, name := range []string{"r", "s"} {
		col, ok := db.Collection(name)
		if !ok {
			t.Fatalf("collection %q missing", name)
		}
		for id := 0; id < col.Len(); id++ {
			shape, _, err := col.Get(id)
			if err != nil {
				t.Fatalf("get %s/%d: %v", name, id, err)
			}
			b := shape.Bounds()
			binary.LittleEndian.PutUint64(buf[0:], math.Float64bits(b.MinX))
			binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(b.MinY))
			binary.LittleEndian.PutUint64(buf[16:], math.Float64bits(b.MaxX))
			binary.LittleEndian.PutUint64(buf[24:], math.Float64bits(b.MaxY))
			h.Write(buf[:])
		}
	}
	return h.Sum64()
}

// assertEquivalent proves the replica is byte-identical to the primary's
// committed state: same dataset fingerprint, and the same canonical match
// set from every strategy plus the advisor.
func assertEquivalent(t *testing.T, f *Follower, p *primary) {
	t.Helper()
	db, release, err := f.Acquire()
	if err != nil {
		t.Fatalf("acquire replica: %v", err)
	}
	defer release()
	if pf, ff := fingerprintDB(t, p.db), fingerprintDB(t, db); pf != ff {
		t.Fatalf("dataset fingerprints diverge: primary %016x, replica %016x", pf, ff)
	}
	want, _, err := p.db.Join(p.r, p.s, spatialjoin.Overlaps(), spatialjoin.ScanStrategy)
	if err != nil {
		t.Fatalf("primary join: %v", err)
	}
	rf, ok := db.Collection("r")
	if !ok {
		t.Fatal("replica lost collection r")
	}
	sf, ok := db.Collection("s")
	if !ok {
		t.Fatal("replica lost collection s")
	}
	strategies := []spatialjoin.Strategy{
		spatialjoin.TreeStrategy, spatialjoin.ScanStrategy, spatialjoin.IndexStrategy,
	}
	for _, strat := range strategies {
		got, _, err := db.Join(rf, sf, spatialjoin.Overlaps(), strat)
		if err != nil {
			t.Fatalf("replica join (%v): %v", strat, err)
		}
		assertSameMatches(t, fmt.Sprintf("replica %v", strat), got, want)
	}
	got, _, _, err := db.JoinAuto(rf, sf, spatialjoin.Overlaps())
	if err != nil {
		t.Fatalf("replica JoinAuto: %v", err)
	}
	assertSameMatches(t, "replica auto", got, want)
}

func assertSameMatches(t *testing.T, label string, got, want []spatialjoin.Match) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d matches, want %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: match %d is %v, want %v", label, i, got[i], want[i])
		}
	}
}

// chaosLink is a dialer whose connections the test can sever at will and
// whose next connection can be armed to corrupt one in-flight byte.
type chaosLink struct {
	addr string

	mu          sync.Mutex
	conns       []net.Conn
	dials       int
	down        bool  // dials fail while the partition holds
	corruptNext int64 // when > 0, flip a byte after this many read bytes on the next conn
	killNext    int64 // when > 0, kill the next conn after this many read bytes
}

func newChaosLink(addr string) *chaosLink { return &chaosLink{addr: addr} }

func (l *chaosLink) dial(ctx context.Context) (net.Conn, error) {
	l.mu.Lock()
	if l.down {
		l.mu.Unlock()
		return nil, errLinkDown
	}
	l.mu.Unlock()
	var d net.Dialer
	c, err := d.DialContext(ctx, "tcp", l.addr)
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	l.dials++
	if l.corruptNext > 0 {
		c = &corruptConn{Conn: c, after: l.corruptNext}
		l.corruptNext = 0
	}
	if l.killNext > 0 {
		c = &killConn{Conn: c, after: l.killNext}
		l.killNext = 0
	}
	l.conns = append(l.conns, c)
	l.mu.Unlock()
	return c, nil
}

// sever closes every connection the link ever handed out — the live one
// included — simulating a partition at an arbitrary stream position.
func (l *chaosLink) sever() {
	l.mu.Lock()
	for _, c := range l.conns {
		_ = c.Close()
	}
	l.conns = nil
	l.mu.Unlock()
}

// armCorruption makes the next dialed connection flip one byte after the
// given number of read bytes.
func (l *chaosLink) armCorruption(after int64) {
	l.mu.Lock()
	l.corruptNext = after
	l.mu.Unlock()
}

func (l *chaosLink) dialCount() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.dials
}

// corruptConn flips a single bit of the byte stream at a chosen offset —
// past the framing layer's checksum, never past it undetected.
type corruptConn struct {
	net.Conn
	after int64
	done  bool
}

func (c *corruptConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if !c.done && n > 0 {
		if c.after < int64(n) {
			p[c.after] ^= 0x40
			c.done = true
		} else {
			c.after -= int64(n)
		}
	}
	return n, err
}

// TestFollowerSeedsAndStreams is the happy path: seed from a full
// snapshot, tail the log, absorb live commits, report healthy lag.
func TestFollowerSeedsAndStreams(t *testing.T) {
	reg := obs.NewRegistry()
	p := startPrimary(t, reg)
	f := startFollower(t, p, func(o *FollowerOptions) { o.Metrics = reg })
	waitConverged(t, f, p)
	assertEquivalent(t, f, p)
	if f.fullSeeds.Load() != 1 {
		t.Errorf("full seeds = %d, want 1", f.fullSeeds.Load())
	}

	// Live commits stream across without reseeding.
	p.insert(12)
	waitConverged(t, f, p)
	assertEquivalent(t, f, p)
	waitFor(t, "streaming state", func() bool { return f.State() == StateStreaming })
	if f.fullSeeds.Load() != 1 || f.resyncs.Load() != 0 {
		t.Errorf("streaming commits took %d seeds and %d resyncs, want 1 and 0",
			f.fullSeeds.Load(), f.resyncs.Load())
	}
	if f.chunks.Load() == 0 {
		t.Error("no tail chunks applied")
	}
	if lagBytes, _ := f.Lag(); lagBytes != 0 {
		t.Errorf("converged replica reports %d bytes of lag", lagBytes)
	}

	// The lag surface the issue demands: spatialjoin_repl_* families on
	// the shared registry, follower and source sides both.
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	for _, family := range []string{
		"spatialjoin_repl_state",
		"spatialjoin_repl_lag_bytes",
		"spatialjoin_repl_lag_seconds",
		"spatialjoin_repl_chunks_total",
		"spatialjoin_repl_source_tail_streams",
		"spatialjoin_repl_source_full_snapshots_total",
	} {
		if !strings.Contains(buf.String(), family) {
			t.Errorf("metrics exposition is missing %s", family)
		}
	}
}

// TestFollowerStalenessPolicy covers the read-side contract: an unseeded
// or lag-exceeded replica refuses reads with a typed STALE verdict.
func TestFollowerStalenessPolicy(t *testing.T) {
	p := startPrimary(t, nil)
	link := newChaosLink(p.addr)
	f := startFollower(t, p, func(o *FollowerOptions) {
		o.Dial = link.dial
		o.MaxLagBytes = 1 // any real lag is over the line
	})
	waitConverged(t, f, p)
	if _, release, err := f.Acquire(); err != nil {
		t.Fatalf("healthy replica refused a read: %v", err)
	} else {
		release()
	}

	// Stop the retry loop cold, commit on the primary, and let the
	// follower learn the new durable end the way a heartbeat would: the
	// replica now measurably trails and must refuse with STALE.
	f.Stop()
	p.insert(8)
	f.sourceDurable.Store(int64(p.db.DurableLSN()))
	_, _, err := f.Acquire()
	if err == nil {
		t.Fatal("lagging replica served a read")
	}
	var se *wire.StatusError
	if !errors.As(err, &se) || se.Status != wire.StatusStale {
		t.Fatalf("lagging replica error = %v, want STALE", err)
	}
	if f.staleRejct.Load() == 0 {
		t.Error("stale rejection not counted")
	}
}

// TestFollowerMetricsScrapableBeforeConnect pins registration order: every
// spatialjoin_repl_* family must be present (at its zero value) from the
// moment NewFollower returns — before Start, before the primary is even
// reachable — so a scrape during the seed wait observes the replica
// seeding instead of an empty exposition. Regression test for the daemon
// starting its metrics listener only after the blocking seed wait.
func TestFollowerMetricsScrapableBeforeConnect(t *testing.T) {
	reg := obs.NewRegistry()
	f, err := NewFollower(FollowerOptions{
		Addr:    "127.0.0.1:1", // nothing listens here
		Config:  replConfig(),
		Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Close waits for the replication loop, so it needs Start first; the
	// scrape below happens before either, which is the point.
	defer func() { f.Start(); f.Close() }()

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	exposition := buf.String()
	for _, family := range []string{
		"spatialjoin_repl_state",
		"spatialjoin_repl_lag_bytes",
		"spatialjoin_repl_lag_seconds",
		"spatialjoin_repl_reconnects_total",
		"spatialjoin_repl_resyncs_total",
		"spatialjoin_repl_full_seeds_total",
		"spatialjoin_repl_corrupt_chunks_total",
		"spatialjoin_repl_chunks_total",
		"spatialjoin_repl_bytes_total",
		"spatialjoin_repl_refreshes_total",
	} {
		if !strings.Contains(exposition, family) {
			t.Errorf("pre-connect exposition is missing %s", family)
		}
	}
	if !strings.Contains(exposition, fmt.Sprintf("spatialjoin_repl_state %d", StateSeeding)) {
		t.Error("pre-connect state gauge does not read seeding")
	}
}

// TestFollowerRejectsDeltaForSeed answers a fresh follower's full-snapshot
// request with a well-formed delta, which has no disk to patch: the follower
// must reject it as corrupt and stay unseeded rather than apply it.
func TestFollowerRejectsDeltaForSeed(t *testing.T) {
	p := startPrimary(t, nil)
	var delta bytes.Buffer
	if _, err := p.db.ExportDelta(&delta, p.db.DurableLSN(), nil); err != nil {
		t.Fatal(err)
	}
	chunk, err := wire.EncodeSnapChunk(wire.SnapChunk{Data: delta.Bytes()})
	if err != nil {
		t.Fatal(err)
	}
	f := startFollower(t, p, func(o *FollowerOptions) {
		o.Dial = func(context.Context) (net.Conn, error) {
			client, server := net.Pipe()
			go func() {
				defer server.Close()
				fr, err := wire.ReadFrame(server, wire.MaxPayload)
				if err != nil {
					return
				}
				if wire.WriteFrame(server, wire.Frame{Type: wire.TypeSnapChunk, Request: fr.Request, Payload: chunk}) != nil {
					return
				}
				wire.WriteFrame(server, wire.Frame{Type: wire.TypeDone, Request: fr.Request,
					Payload: wire.EncodeDone(wire.Done{Status: wire.StatusOK})})
			}()
			return client, nil
		}
	})
	waitFor(t, "the delta to be rejected", func() bool { return f.corrupt.Load() > 0 })
	if _, _, err := f.Acquire(); err == nil {
		t.Error("a follower answered with only a delta serves reads")
	}
	if f.fullSeeds.Load() != 0 || f.deltaPages.Load() != 0 {
		t.Errorf("delta applied: %d full seeds, %d delta pages", f.fullSeeds.Load(), f.deltaPages.Load())
	}
}
