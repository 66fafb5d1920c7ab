package repl

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"spatialjoin"
	"spatialjoin/internal/obs"
	"spatialjoin/internal/storage"
	"spatialjoin/internal/wal"
	"spatialjoin/internal/wire"
)

// State is a follower's position in its replication lifecycle.
type State int32

const (
	// StateSeeding: no usable database yet; a snapshot is being fetched.
	StateSeeding State = iota
	// StateCatchingUp: serving reads, but known to be behind the primary.
	StateCatchingUp
	// StateStreaming: caught up to the primary's durable end at last
	// contact.
	StateStreaming
	// StateStalled: disconnected from the primary; reads serve the last
	// applied state until the lag policy calls them stale.
	StateStalled
)

// String names the state for logs and metrics.
func (s State) String() string {
	switch s {
	case StateSeeding:
		return "seeding"
	case StateCatchingUp:
		return "catching-up"
	case StateStreaming:
		return "streaming"
	case StateStalled:
		return "stalled"
	}
	return fmt.Sprintf("state(%d)", int32(s))
}

// FollowerOptions configures a Follower.
type FollowerOptions struct {
	// Addr is the primary's address, dialed with tcp unless Dial is set.
	Addr string
	// Config opens the replica database; it must have WAL set and Fault
	// unset (the follower needs the raw disk for delta application), and
	// should match the primary's page geometry.
	Config spatialjoin.Config
	// Dial overrides the connection factory (chaos tests cut links here).
	Dial func(ctx context.Context) (net.Conn, error)
	// MaxLagBytes marks the replica stale when its visible state trails
	// the primary's durable end by more than this many log bytes (0: never
	// stale by lag).
	MaxLagBytes int64
	// MaxLagAge marks the replica stale when nothing has been heard from
	// the primary for this long (0: never stale by age).
	MaxLagAge time.Duration
	// BackoffBase and BackoffMax bound the reconnect backoff (defaults
	// 5ms and 500ms).
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// Metrics registers follower-side gauges and counters when set.
	Metrics *obs.Registry
}

// Follower is the replica side of replication: it seeds itself from the
// primary, tails the log, and keeps retrying — with capped backoff, delta
// resyncs after truncation, and full reseeds after anything worse — until
// stopped. All replication work happens on one background goroutine;
// readers acquire the current database through Acquire.
type Follower struct {
	opts FollowerOptions

	mu      sync.RWMutex // guards db and disk swaps against readers
	db      *spatialjoin.Database
	disk    *storage.Disk
	applied wal.LSN // NextApplyFloor of the last recovery; replay floor
	// visible is the log end whose committed state the current database
	// exposes to readers. Shipped records land in the log before the
	// refresh that makes them readable, so the log's DurableLSN can run
	// ahead of it; lag and convergence are judged by this watermark. It
	// is stored under mu with each db swap, and by the tail loop alone
	// after a batch that changes nothing readable.
	visible atomic.Int64

	connMu sync.Mutex
	conn   net.Conn

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}

	state         atomic.Int32
	sourceDurable atomic.Int64
	lastProgress  atomic.Int64 // unix nanos of the last frame from the primary
	needResync    atomic.Bool

	reconnects atomic.Int64
	resyncs    atomic.Int64
	fullSeeds  atomic.Int64
	corrupt    atomic.Int64
	chunks     atomic.Int64
	bytes      atomic.Int64
	refreshes  atomic.Int64
	deltaPages atomic.Int64
	staleRejct atomic.Int64
}

// NewFollower validates the options and builds a stopped follower; call
// Start to begin replicating.
func NewFollower(opts FollowerOptions) (*Follower, error) {
	if !opts.Config.WAL {
		return nil, errors.New("repl: follower requires Config.WAL")
	}
	if opts.Config.Fault != nil {
		return nil, errors.New("repl: follower Config.Fault must be nil (delta application needs the raw disk)")
	}
	if opts.Dial == nil {
		addr := opts.Addr
		if addr == "" {
			return nil, errors.New("repl: follower needs Addr or Dial")
		}
		opts.Dial = func(ctx context.Context) (net.Conn, error) {
			var d net.Dialer
			return d.DialContext(ctx, "tcp", addr)
		}
	}
	if opts.BackoffBase <= 0 {
		opts.BackoffBase = 5 * time.Millisecond
	}
	if opts.BackoffMax <= 0 {
		opts.BackoffMax = 500 * time.Millisecond
	}
	f := &Follower{
		opts: opts,
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	f.state.Store(int32(StateSeeding))
	f.registerMetrics()
	return f, nil
}

// Start launches the replication loop.
func (f *Follower) Start() { go f.run() }

// Stop halts replication, severs any open connection, and waits for the
// loop to exit. The last applied database stays available through Acquire
// (subject to the lag policy) until Close.
func (f *Follower) Stop() {
	f.stopOnce.Do(func() {
		close(f.stop)
		f.connMu.Lock()
		if f.conn != nil {
			f.conn.Close()
		}
		f.connMu.Unlock()
	})
	<-f.done
}

// Close stops the follower and closes its database.
func (f *Follower) Close() {
	f.Stop()
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.db != nil {
		f.db.Close()
		f.db = nil
		f.disk = nil
	}
}

// Acquire returns the replica database for one read, with a release the
// caller must invoke when done. It fails with a wire.StatusError carrying
// StatusStale when the replica has no seeded database yet or trails the
// primary beyond the configured lag policy.
func (f *Follower) Acquire() (*spatialjoin.Database, func(), error) {
	//sjlint:ignore lockbalance the read lock is handed to the caller as the release func, pinning the db across the read
	f.mu.RLock()
	if f.db == nil {
		f.mu.RUnlock()
		f.staleRejct.Add(1)
		obs.Record(obs.RecReplStale, 0, 0, 0, 0)
		return nil, nil, &wire.StatusError{Status: wire.StatusStale, Message: "replica has no seeded database yet"}
	}
	if f.opts.MaxLagBytes > 0 {
		if lag := f.lagBytes(); lag > f.opts.MaxLagBytes {
			f.mu.RUnlock()
			f.staleRejct.Add(1)
			obs.Record(obs.RecReplStale, 0, 0, lag, 0)
			return nil, nil, &wire.StatusError{
				Status:  wire.StatusStale,
				Message: fmt.Sprintf("replica lags the primary by %d log bytes (max %d)", lag, f.opts.MaxLagBytes),
			}
		}
	}
	if f.opts.MaxLagAge > 0 {
		if age := f.lagAge(); age > f.opts.MaxLagAge {
			f.mu.RUnlock()
			f.staleRejct.Add(1)
			obs.Record(obs.RecReplStale, 0, 0, 0, age.Nanoseconds())
			return nil, nil, &wire.StatusError{
				Status:  wire.StatusStale,
				Message: fmt.Sprintf("no word from the primary for %.1fs (max %s)", age.Seconds(), f.opts.MaxLagAge),
			}
		}
	}
	return f.db, f.mu.RUnlock, nil
}

// State reports the follower's current lifecycle state.
func (f *Follower) State() State { return State(f.state.Load()) }

// toState moves the state machine, landing the transition in the always-on
// flight recorder when the state actually changes (the tail loop re-asserts
// its state per chunk; only real transitions are worth a ring slot). The
// State and recorder code spaces coincide by construction.
func (f *Follower) toState(s State) {
	if prev := State(f.state.Swap(int32(s))); prev != s {
		obs.Record(obs.RecReplState, uint8(s), 0, int64(prev), 0)
	}
}

// Lag reports how far the replica trails the primary: in log bytes (the
// primary's durable LSN minus the replica's visible watermark) and in time
// since the last frame arrived from the primary.
func (f *Follower) Lag() (bytes int64, age time.Duration) {
	f.mu.RLock()
	defer f.mu.RUnlock()
	return f.lagBytes(), f.lagAge()
}

// lagBytes needs at least a read lock.
func (f *Follower) lagBytes() int64 {
	if f.db == nil {
		return f.sourceDurable.Load()
	}
	lag := f.sourceDurable.Load() - f.visible.Load()
	if lag < 0 {
		lag = 0
	}
	return lag
}

func (f *Follower) lagAge() time.Duration {
	last := f.lastProgress.Load()
	if last == 0 {
		return 0
	}
	return time.Since(time.Unix(0, last))
}

func (f *Follower) stopped() bool {
	select {
	case <-f.stop:
		return true
	default:
		return false
	}
}

// run is the replication loop: dial, replicate until the session ends,
// back off, repeat. A session that made progress resets the backoff.
func (f *Follower) run() {
	defer close(f.done)
	backoff := f.opts.BackoffBase
	for {
		if f.stopped() {
			return
		}
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		conn, err := f.opts.Dial(ctx)
		cancel()
		if err != nil {
			f.setDisconnected()
			if !f.sleep(backoff) {
				return
			}
			backoff = f.grow(backoff)
			continue
		}
		f.setConn(conn)
		mark := f.progressMark()
		serr := f.session(conn)
		progressed := f.progressMark() != mark
		f.setConn(nil)
		conn.Close()
		if f.stopped() {
			return
		}
		f.setDisconnected()
		f.reconnects.Add(1)
		if progressed {
			backoff = f.opts.BackoffBase
		}
		if serr != nil {
			if !f.sleep(backoff) {
				return
			}
			backoff = f.grow(backoff)
		}
	}
}

func (f *Follower) setConn(c net.Conn) {
	f.connMu.Lock()
	f.conn = c
	f.connMu.Unlock()
}

// setDisconnected runs on the replication goroutine, which is the only
// writer of f.db, so the unlocked read is race-free... except Close, which
// runs only after Stop has joined the goroutine.
func (f *Follower) setDisconnected() {
	if f.db == nil {
		f.toState(StateSeeding)
	} else {
		f.toState(StateStalled)
	}
}

func (f *Follower) sleep(d time.Duration) bool {
	select {
	case <-f.stop:
		return false
	case <-time.After(d):
		return true
	}
}

func (f *Follower) grow(d time.Duration) time.Duration {
	d *= 2
	if d > f.opts.BackoffMax {
		d = f.opts.BackoffMax
	}
	return d
}

// progressMark is a monotone sum that moves whenever a session does useful
// work; run uses it to reset the reconnect backoff.
func (f *Follower) progressMark() int64 {
	return f.chunks.Load() + f.fullSeeds.Load() + f.resyncs.Load() + f.refreshes.Load()
}

// errResync reports that the primary answered GONE: the records the
// follower asked to tail were truncated, so the next session must resync
// from a snapshot delta.
var errResync = errors.New("repl: tail ask truncated on the primary; resyncing from a delta")

// session drives one connection: catch up from a snapshot if needed, then
// tail the log until the connection or the follower dies.
func (f *Follower) session(conn net.Conn) error {
	if f.db == nil || f.needResync.Load() {
		if f.db == nil {
			f.toState(StateSeeding)
		} else {
			f.toState(StateCatchingUp)
		}
		if err := f.catchUp(conn, 1); err != nil {
			return err
		}
		f.needResync.Store(false)
	}
	return f.tail(conn, 2)
}

// catchUp seeds or resyncs the follower from one snapshot stream. It asks
// for the pages changed since its applied floor, or for everything (since
// 0) when it has no disk, and installs whichever form the primary answers
// with: a primary whose dirty-page tracking does not reach back that far
// answers a delta request with a full snapshot. The stream is verified end
// to end before either form writes a page, so a torn or corrupt answer
// leaves the follower as it was. A full snapshot seeds a fresh disk, and
// readers keep the old database until it is swapped in; a delta patches
// the replica's own disk, which then reopens through full-log replay.
func (f *Follower) catchUp(conn net.Conn, req uint64) error {
	since := f.applied
	if f.disk == nil {
		since = 0
	}
	if f.db != nil {
		f.resyncs.Add(1)
	}
	if err := wire.WriteFrame(conn, wire.Frame{
		Type: wire.TypeSnapDelta, Request: req,
		Payload: wire.EncodeSnapDelta(wire.SnapDeltaRequest{SinceLSN: uint64(since)}),
	}); err != nil {
		return err
	}
	r := &snapReader{f: f, conn: conn, req: req}
	snap, err := spatialjoin.ReadSnapshot(r)
	if err != nil {
		if r.err == nil {
			f.corrupt.Add(1) // the link delivered it; the image failed its checks
		}
		return err
	}
	if err := r.drain(); err != nil {
		return err
	}
	if snap.Info.SinceLSN != 0 {
		if f.disk == nil {
			f.corrupt.Add(1)
			return fmt.Errorf("repl: asked for a full snapshot, got a delta since LSN %d", snap.Info.SinceLSN)
		}
		err := f.swap(func() (*spatialjoin.Database, *storage.Disk, error) {
			if err := snap.Patch(f.disk); err != nil {
				return nil, nil, err
			}
			db, _, err := spatialjoin.ReopenAt(f.opts.Config, f.disk, 1)
			return db, f.disk, err
		})
		if err == nil {
			f.deltaPages.Add(int64(snap.Info.Pages))
		}
		return err
	}
	db, err := snap.Seed(f.opts.Config)
	if err != nil {
		return err
	}
	// NewFollower refuses Config.Fault, so the seeded device is a raw disk.
	disk := db.Device().(*storage.Disk)
	if err := f.swap(func() (*spatialjoin.Database, *storage.Disk, error) { return db, disk, nil }); err != nil {
		return err
	}
	f.fullSeeds.Add(1)
	return nil
}

// swap replaces the readers' database. It holds the write lock throughout,
// so readers wait out the swap rather than see a gap. The current database
// closes first, because open may rebuild over the same disk; open returns
// the successor and the disk under it. A failed open leaves the follower
// with neither, so the next session seeds from a full snapshot.
func (f *Follower) swap(open func() (*spatialjoin.Database, *storage.Disk, error)) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.db != nil {
		f.db.Close()
	}
	db, disk, err := open()
	if err != nil {
		f.db, f.disk = nil, nil
		return err
	}
	f.db, f.disk = db, disk
	f.applied = db.RecoveryInfo().NextApplyFloor
	f.visible.Store(int64(db.DurableLSN()))
	return nil
}

// tail streams the primary's log from the follower's durable end, applying
// each shipped chunk through AppendRawWAL and reopening through bounded
// recovery whenever a batch lands committed state.
func (f *Follower) tail(conn net.Conn, req uint64) error {
	from := f.db.DurableLSN()
	if err := wire.WriteFrame(conn, wire.Frame{
		Type: wire.TypeReplTail, Request: req,
		Payload: wire.EncodeReplTail(wire.ReplTailRequest{FromLSN: uint64(from)}),
	}); err != nil {
		return err
	}
	f.toState(StateCatchingUp)
	for {
		if f.stopped() {
			return nil
		}
		fr, err := wire.ReadFrame(conn, wire.MaxPayload)
		if err != nil {
			return err
		}
		if fr.Request != req {
			return fmt.Errorf("repl: frame for request %d on tail stream %d", fr.Request, req)
		}
		f.lastProgress.Store(time.Now().UnixNano())
		switch fr.Type {
		case wire.TypeWALChunk:
			c, derr := wire.DecodeWALChunk(fr.Payload)
			if derr != nil {
				f.corrupt.Add(1)
				return derr
			}
			f.sourceDurable.Store(int64(c.DurableLSN))
			if len(c.Records) > 0 {
				records, aerr := f.db.AppendRawWAL(wal.LSN(c.BaseLSN), c.Records)
				if aerr != nil {
					// A corrupt or misaligned chunk never lands: reconnect
					// and re-request from our (unchanged) durable end.
					f.corrupt.Add(1)
					return aerr
				}
				f.chunks.Add(1)
				f.bytes.Add(int64(len(c.Records)))
				if needsRefresh(records) {
					if rerr := f.refresh(); rerr != nil {
						return rerr
					}
				} else {
					// Nothing readable changed, so the current database
					// already exposes the state at the new log end.
					f.visible.Store(int64(f.db.DurableLSN()))
				}
			}
			if f.visible.Load() >= int64(c.DurableLSN) {
				f.toState(StateStreaming)
			} else {
				f.toState(StateCatchingUp)
			}
		case wire.TypeDone:
			d, derr := wire.DecodeDone(fr.Payload)
			if derr != nil {
				return derr
			}
			if d.Status == wire.StatusGone {
				obs.Record(obs.RecReplGone, 0, 0, int64(from), 0)
				f.needResync.Store(true)
				return errResync
			}
			return &wire.StatusError{Status: d.Status, Message: d.Message}
		default:
			return fmt.Errorf("repl: unexpected frame %#02x on tail stream", fr.Type)
		}
	}
}

// needsRefresh reports whether a shipped batch lands committed state — only
// then is the cost of reopening through recovery paid. Begin, image, and
// abort records change nothing a reader may see.
func needsRefresh(records []wal.Record) bool {
	for _, r := range records {
		switch r.Type {
		case wal.RecCommit, wal.RecNewCollection, wal.RecNewJoinIndex, wal.RecCheckpointEnd:
			return true
		}
	}
	return false
}

// refresh reopens the replica database through recovery floored at the
// last applied LSN, absorbing freshly shipped commits.
func (f *Follower) refresh() error {
	f.refreshes.Add(1)
	return f.swap(func() (*spatialjoin.Database, *storage.Disk, error) {
		db, _, err := spatialjoin.ReopenAt(f.opts.Config, f.disk, f.applied)
		return db, f.disk, err
	})
}

// snapReader adapts a run of SnapChunk frames into an io.Reader that ends
// in io.EOF at the stream's closing Done frame. Offsets are verified
// contiguous, so a dropped or reordered chunk fails instead of feeding the
// seed a gapped stream.
type snapReader struct {
	f    *Follower
	conn net.Conn
	req  uint64
	buf  []byte
	next uint64
	done bool
	err  error // the first failure of the link or its framing, if any
}

func (r *snapReader) Read(p []byte) (int, error) {
	if err := r.fill(); err != nil {
		if err != io.EOF && r.err == nil {
			r.err = err
		}
		return 0, err
	}
	n := copy(p, r.buf)
	r.buf = r.buf[n:]
	return n, nil
}

// fill reads frames until buffered stream bytes are available, returning
// io.EOF after the closing Done frame.
func (r *snapReader) fill() error {
	for len(r.buf) == 0 {
		if r.done {
			return io.EOF
		}
		fr, err := wire.ReadFrame(r.conn, wire.MaxPayload)
		if err != nil {
			return err
		}
		if fr.Request != r.req {
			return fmt.Errorf("repl: frame for request %d on snapshot stream %d", fr.Request, r.req)
		}
		r.f.lastProgress.Store(time.Now().UnixNano())
		switch fr.Type {
		case wire.TypeSnapChunk:
			c, derr := wire.DecodeSnapChunk(fr.Payload)
			if derr != nil {
				r.f.corrupt.Add(1)
				return derr
			}
			if c.Offset != r.next {
				r.f.corrupt.Add(1)
				return fmt.Errorf("repl: snapshot chunk at offset %d, want %d", c.Offset, r.next)
			}
			r.next += uint64(len(c.Data))
			r.buf = c.Data
			r.f.chunks.Add(1)
			r.f.bytes.Add(int64(len(c.Data)))
		case wire.TypeDone:
			d, derr := wire.DecodeDone(fr.Payload)
			if derr != nil {
				return derr
			}
			r.done = true
			if d.Status != wire.StatusOK {
				return &wire.StatusError{Status: d.Status, Message: d.Message}
			}
		default:
			return fmt.Errorf("repl: unexpected frame %#02x on snapshot stream", fr.Type)
		}
	}
	return nil
}

// drain consumes the stream through its closing Done frame; the decoders
// stop reading at the image trailer, one frame shy of it.
func (r *snapReader) drain() error {
	var scratch [4096]byte
	for !r.done {
		if _, err := r.Read(scratch[:]); err != nil {
			if err == io.EOF {
				return nil
			}
			return err
		}
	}
	return nil
}

// registerMetrics exposes follower-side replication gauges and counters.
func (f *Follower) registerMetrics() {
	m := f.opts.Metrics
	if m == nil {
		return
	}
	m.GaugeFunc("spatialjoin_repl_state",
		"Follower state: 0 seeding, 1 catching up, 2 streaming, 3 stalled.",
		func() float64 { return float64(f.state.Load()) })
	m.GaugeFunc("spatialjoin_repl_lag_bytes",
		"Log bytes the replica's visible state trails the primary's durable end.",
		func() float64 { b, _ := f.Lag(); return float64(b) })
	m.GaugeFunc("spatialjoin_repl_lag_seconds",
		"Seconds since the last frame arrived from the primary.",
		func() float64 { _, a := f.Lag(); return a.Seconds() })
	count := func(name, help string, load func() int64) {
		m.CounterFunc(name, help, func() float64 { return float64(load()) })
	}
	count("spatialjoin_repl_reconnects_total", "Sessions ended and re-dialed.", func() int64 { return f.reconnects.Load() })
	count("spatialjoin_repl_resyncs_total", "Delta resyncs after the primary truncated past our ask.", func() int64 { return f.resyncs.Load() })
	count("spatialjoin_repl_full_seeds_total", "Full snapshot seeds applied.", func() int64 { return f.fullSeeds.Load() })
	count("spatialjoin_repl_corrupt_chunks_total", "Chunks rejected by CRC, decode, or alignment checks.", func() int64 { return f.corrupt.Load() })
	count("spatialjoin_repl_chunks_total", "Replication chunks applied.", func() int64 { return f.chunks.Load() })
	count("spatialjoin_repl_bytes_total", "Replication payload bytes applied.", func() int64 { return f.bytes.Load() })
	count("spatialjoin_repl_refreshes_total", "Reopens through recovery to absorb shipped commits.", func() int64 { return f.refreshes.Load() })
	count("spatialjoin_repl_delta_pages_total", "Pages shipped by snapshot deltas.", func() int64 { return f.deltaPages.Load() })
	count("spatialjoin_repl_stale_rejections_total", "Reads refused by the staleness policy.", func() int64 { return f.staleRejct.Load() })
}
