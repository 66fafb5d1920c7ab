// Package repl keeps read-only replicas of a spatialjoin database
// continuously current over the wire protocol. The primary side is a
// Source: it serves WAL tail streams (raw CRC-checked records from a
// requested LSN) and snapshot streams (every page of the device, or a
// delta of just the pages dirtied since the replica's last-applied LSN,
// in one image format). The
// replica side is a Follower: a state machine that seeds itself from a
// snapshot, tails the log through ordinary recovery, detects when the
// primary has truncated the records it needs and falls back to a delta
// resync, and retries every failure with capped backoff — a replica left
// alone converges to the primary's committed prefix through disconnects,
// crashes, corrupt frames, and log truncation.
package repl

import (
	"context"
	"errors"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"spatialjoin"
	"spatialjoin/internal/obs"
	"spatialjoin/internal/storage"
	"spatialjoin/internal/wal"
	"spatialjoin/internal/wire"
)

// ErrSourceClosed reports an operation on a closed Source.
var ErrSourceClosed = errors.New("repl: source closed")

// SourceOptions tunes a Source. The zero value serves.
type SourceOptions struct {
	// Checkpoint runs a checkpoint on the primary before a snapshot or
	// delta is cut, forcing committed content onto the device. Defaults to
	// the database's own Checkpoint; override to serialize with an external
	// checkpoint schedule.
	Checkpoint func() error
	// PollInterval is how often an idle tail stream looks for new records
	// (default 2ms).
	PollInterval time.Duration
	// HeartbeatEvery is how often an idle tail stream ships an empty chunk
	// carrying the primary's durable LSN, so a caught-up replica keeps an
	// up-to-date lag reading (default 100ms).
	HeartbeatEvery time.Duration
	// Metrics registers source-side counters when set.
	Metrics *obs.Registry
}

// Source serves replication streams off a live primary. It tracks which
// pages the log has imaged — by tailing the primary's own log with a
// TailReader, pinned against checkpoint truncation — so a delta request
// ships only the pages dirtied since the replica's applied LSN.
type Source struct {
	db     *spatialjoin.Database
	dev    storage.Device
	opts   SourceOptions
	closed chan struct{}
	once   sync.Once

	mu         sync.Mutex
	tracker    *wal.TailReader
	lastImage  map[storage.PageID]wal.LSN
	knownSince wal.LSN

	tailStreams   atomic.Int64
	snapStreams   atomic.Int64
	fullSnaps     atomic.Int64
	deltas        atomic.Int64
	chunks        atomic.Int64
	bytes         atomic.Int64
	trackerResets atomic.Int64
}

// NewSource builds a Source over db, which must run with a WAL. The
// dirty-page tracker starts at the current durable end: delta requests
// older than this instant fall back to full snapshots until the tracker
// has history for them.
func NewSource(db *spatialjoin.Database, opts SourceOptions) (*Source, error) {
	if opts.Checkpoint == nil {
		opts.Checkpoint = func() error { _, err := db.Checkpoint(); return err }
	}
	if opts.PollInterval <= 0 {
		opts.PollInterval = 2 * time.Millisecond
	}
	if opts.HeartbeatEvery <= 0 {
		opts.HeartbeatEvery = 100 * time.Millisecond
	}
	durable := db.DurableLSN()
	if durable == 0 {
		return nil, errors.New("repl: source requires a database with Config.WAL")
	}
	dev := db.Device()
	tracker, err := wal.OpenTail(dev, durable)
	if err != nil {
		return nil, err
	}
	s := &Source{
		db:         db,
		dev:        dev,
		opts:       opts,
		closed:     make(chan struct{}),
		tracker:    tracker,
		lastImage:  make(map[storage.PageID]wal.LSN),
		knownSince: durable,
	}
	db.RetainWAL(durable)
	s.registerMetrics()
	return s, nil
}

// Close stops the source: open streams return ErrSourceClosed at their
// next step, and the log-truncation pin is released.
func (s *Source) Close() {
	s.once.Do(func() {
		close(s.closed)
		s.db.RetainWAL(0)
	})
}

func (s *Source) isClosed() bool {
	select {
	case <-s.closed:
		return true
	default:
		return false
	}
}

// catchUpLocked advances the dirty-page tracker to the log's durable end,
// recording each imaged page's latest LSN, then moves the truncation pin
// up to the tracker. If the tracker has somehow lost its place — the pin
// was released, or the log diverged — it restarts at the durable end and
// the delta horizon moves up with it: older delta requests get full
// snapshots, never wrong ones.
func (s *Source) catchUpLocked() error {
	for {
		base, chunk, err := s.tracker.Next(1 << 20)
		if err != nil {
			durable := s.db.DurableLSN()
			tracker, rerr := wal.OpenTail(s.dev, durable)
			if rerr != nil {
				return rerr
			}
			s.tracker = tracker
			s.lastImage = make(map[storage.PageID]wal.LSN)
			s.knownSince = durable
			s.trackerResets.Add(1)
			s.db.RetainWAL(durable)
			return nil
		}
		if chunk == nil {
			s.db.RetainWAL(s.tracker.Pos())
			return nil
		}
		records, err := wal.ParseChunk(base, chunk)
		if err != nil {
			return err
		}
		for _, r := range records {
			if r.Type == wal.RecImage {
				s.lastImage[r.Page] = r.LSN
			}
		}
	}
}

// Advance catches the dirty-page tracker up to the log's durable end and
// moves the truncation pin with it. Primaries call it on their checkpoint
// schedule: retention then follows the tracker rather than the source's
// birth, so the log stays truncatable, and a replica that fell behind the
// pin pays a delta resync instead of holding history hostage forever.
func (s *Source) Advance() error {
	if s.isClosed() {
		return ErrSourceClosed
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.catchUpLocked()
}

// tailStream is one open WAL tail: a cursor over the primary's log from a
// replica's requested LSN. StreamTail is its only opener and closes it.
type tailStream struct {
	s    *Source
	tr   *wal.TailReader
	once sync.Once
}

// openTail opens a tail stream from the given record-boundary LSN. It
// fails with wal.ErrTruncatedAway when the log no longer reaches back that
// far — the caller should tell the replica to resync from a delta.
func (s *Source) openTail(from wal.LSN) (*tailStream, error) {
	if s.isClosed() {
		return nil, ErrSourceClosed
	}
	tr, err := wal.OpenTail(s.dev, from)
	if err != nil {
		return nil, err
	}
	s.tailStreams.Add(1)
	return &tailStream{s: s, tr: tr}, nil
}

// Next returns the next chunk of complete records, up to max bytes. A
// chunk with no Records means the stream is caught up; it still carries
// the primary's durable LSN for lag accounting.
func (t *tailStream) Next(max int) (wire.WALChunk, error) {
	base, chunk, err := t.tr.Next(max)
	if err != nil {
		return wire.WALChunk{}, err
	}
	if chunk == nil {
		base = t.tr.Pos()
	}
	return wire.WALChunk{
		BaseLSN:    uint64(base),
		DurableLSN: uint64(t.s.db.DurableLSN()),
		Records:    chunk,
	}, nil
}

// Close releases the stream.
func (t *tailStream) Close() error {
	t.once.Do(func() { t.s.tailStreams.Add(-1) })
	return nil
}

// snapStream is one snapshot or delta export in flight: the encoding
// goroutine writes into a pipe the stream reads from. StreamSnap is its
// only opener and closes it, which also reaps the goroutine.
type snapStream struct {
	s    *Source
	r    *io.PipeReader
	done chan struct{}
	once sync.Once
	// full reports whether the stream carries a full snapshot rather than
	// a delta (the replica asked from before the tracker's horizon).
	full bool
}

// openSnap checkpoints the primary and opens a snapshot stream covering
// the pages dirtied since the given LSN — or a full snapshot when
// since predates the tracker's horizon (in particular, since 0).
func (s *Source) openSnap(since wal.LSN) (*snapStream, error) {
	if s.isClosed() {
		return nil, ErrSourceClosed
	}
	if err := s.opts.Checkpoint(); err != nil {
		return nil, err
	}
	s.mu.Lock()
	if err := s.catchUpLocked(); err != nil {
		s.mu.Unlock()
		return nil, err
	}
	full := since < s.knownSince
	var pages []storage.PageID
	if !full {
		for id, lsn := range s.lastImage {
			if lsn >= since {
				pages = append(pages, id)
			}
		}
	}
	s.mu.Unlock()
	if full {
		s.fullSnaps.Add(1)
	} else {
		s.deltas.Add(1)
	}
	pr, pw := io.Pipe()
	st := &snapStream{s: s, r: pr, done: make(chan struct{}), full: full}
	s.snapStreams.Add(1)
	go func() {
		defer close(st.done)
		var err error
		if full {
			_, err = s.db.ExportSnapshot(pw)
		} else {
			_, err = s.db.ExportDelta(pw, since, pages)
		}
		pw.CloseWithError(err)
	}()
	return st, nil
}

// Next returns the next at-most-max bytes of the snapshot stream, or
// io.EOF at its clean end.
func (st *snapStream) Next(max int) ([]byte, error) {
	buf := make([]byte, max)
	n, err := io.ReadFull(st.r, buf)
	if n > 0 {
		return buf[:n], nil
	}
	if err == io.ErrUnexpectedEOF {
		err = io.EOF
	}
	return nil, err
}

// Close releases the stream, reaping the export goroutine if the stream
// was abandoned partway.
func (st *snapStream) Close() error {
	st.once.Do(func() {
		st.r.CloseWithError(ErrSourceClosed)
		<-st.done
		st.s.snapStreams.Add(-1)
	})
	return nil
}

// StreamTail serves one tail stream through send until the context ends,
// the source closes, or send fails. Idle periods ship heartbeat chunks so
// the replica's lag reading stays fresh; the first heartbeat goes out
// immediately.
func (s *Source) StreamTail(ctx context.Context, from wal.LSN, send func(wire.WALChunk) error) error {
	t, err := s.openTail(from)
	if err != nil {
		return err
	}
	defer t.Close()
	var lastBeat time.Time
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-s.closed:
			return ErrSourceClosed
		default:
		}
		c, err := t.Next(wire.MaxReplChunk)
		if err != nil {
			return err
		}
		if len(c.Records) == 0 {
			if time.Since(lastBeat) >= s.opts.HeartbeatEvery || lastBeat.IsZero() {
				if err := send(c); err != nil {
					return err
				}
				lastBeat = time.Now()
			}
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-s.closed:
				return ErrSourceClosed
			case <-time.After(s.opts.PollInterval):
			}
			continue
		}
		if err := send(c); err != nil {
			return err
		}
		s.chunks.Add(1)
		s.bytes.Add(int64(len(c.Records)))
		lastBeat = time.Now()
	}
}

// StreamSnap serves one snapshot or delta stream through send and returns
// when the stream is complete. The boolean reports whether a full
// snapshot (rather than a delta) was shipped.
func (s *Source) StreamSnap(ctx context.Context, since wal.LSN, send func(wire.SnapChunk) error) (bool, error) {
	st, err := s.openSnap(since)
	if err != nil {
		return false, err
	}
	defer st.Close()
	var off uint64
	for {
		select {
		case <-ctx.Done():
			return st.full, ctx.Err()
		case <-s.closed:
			return st.full, ErrSourceClosed
		default:
		}
		data, err := st.Next(wire.MaxReplChunk)
		if err == io.EOF {
			return st.full, nil
		}
		if err != nil {
			return st.full, err
		}
		if err := send(wire.SnapChunk{Offset: off, Data: data}); err != nil {
			return st.full, err
		}
		off += uint64(len(data))
		s.chunks.Add(1)
		s.bytes.Add(int64(len(data)))
	}
}

// registerMetrics exposes source-side replication counters.
func (s *Source) registerMetrics() {
	m := s.opts.Metrics
	if m == nil {
		return
	}
	m.GaugeFunc("spatialjoin_repl_source_tail_streams", "Open WAL tail streams.",
		func() float64 { return float64(s.tailStreams.Load()) })
	m.GaugeFunc("spatialjoin_repl_source_snap_streams", "Open snapshot streams.",
		func() float64 { return float64(s.snapStreams.Load()) })
	m.CounterFunc("spatialjoin_repl_source_full_snapshots_total", "Full snapshots shipped to replicas.",
		func() float64 { return float64(s.fullSnaps.Load()) })
	m.CounterFunc("spatialjoin_repl_source_deltas_total", "Incremental snapshot deltas shipped to replicas.",
		func() float64 { return float64(s.deltas.Load()) })
	m.CounterFunc("spatialjoin_repl_source_chunks_total", "Replication chunks shipped.",
		func() float64 { return float64(s.chunks.Load()) })
	m.CounterFunc("spatialjoin_repl_source_bytes_total", "Replication payload bytes shipped.",
		func() float64 { return float64(s.bytes.Load()) })
	m.CounterFunc("spatialjoin_repl_source_tracker_resets_total", "Dirty-page tracker resets (deltas degraded to full snapshots).",
		func() float64 { return float64(s.trackerResets.Load()) })
}
