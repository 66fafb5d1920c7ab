package spatialjoin

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"spatialjoin/internal/fault"
	"spatialjoin/internal/join"
	"spatialjoin/internal/obs"
	"spatialjoin/internal/relation"
	"spatialjoin/internal/rtree"
	"spatialjoin/internal/storage"
	"spatialjoin/internal/wal"
)

// Config sizes the simulated storage subsystem, mirroring the cost model's
// system parameters (Table 2), and the parallel execution engine.
type Config struct {
	// PageSize is the disk page size s in bytes.
	PageSize int
	// BufferPages is the buffer-pool capacity M in pages.
	BufferPages int
	// FillFactor is the average page utilization l in (0, 1].
	FillFactor float64
	// IndexOptions configures the per-collection R-tree indices.
	IndexOptions rtree.Options
	// JoinIndexOrder is the B+-tree order z for precomputed join indices.
	JoinIndexOrder int
	// Workers is the number of goroutines join strategies may use.
	// 0 means runtime.GOMAXPROCS(0); 1 forces sequential execution.
	// Whatever the setting, every strategy returns the identical,
	// canonically (R, S)-sorted match set.
	Workers int
	// QueryTimeout, when positive, bounds every Join/Select call with a
	// deadline; an expired deadline aborts the traversal mid-descent with
	// context.DeadlineExceeded. Contexts passed to JoinContext /
	// SelectContext compose with it (whichever fires first wins).
	QueryTimeout time.Duration
	// SlowQuery, when positive, is the latency threshold above which a
	// finished query additionally lands in the always-on flight recorder
	// as a slow_query event (see internal/obs: /debug/events, SIGQUIT
	// dump), carrying its trace ID when the query was traced.
	SlowQuery time.Duration
	// Fault, when non-nil, interposes a deterministic fault-injecting
	// device (see internal/fault) between the buffer pool and the disk.
	// Production-shaped code never sets this; chaos tests and the CLI
	// flags do.
	Fault *fault.Options
	// Retry, when non-nil, overrides the buffer pool's default retry
	// policy for physical page transfers.
	Retry *storage.RetryPolicy
	// WAL turns on crash-consistent updates through a write-ahead log:
	// every mutation (Insert, CreateCollection, BuildJoinIndex) becomes an
	// atomic transaction, and a crashed database reopened with Reopen
	// recovers to exactly the committed state.
	WAL bool
	// WALGroupCommit is the number of commits batched per log sync when
	// WAL is on. Values <= 1 force the log durable on every commit (the
	// safest, slowest policy); larger values amortize log writes at the
	// cost of losing the newest unsynced transactions in a crash — never
	// of corrupting the survivors.
	WALGroupCommit int
	// Metrics, when non-nil, exposes the engine through the registry:
	// buffer pool, disk, WAL, worker pool, and per-query counters are
	// registered at Open and sampled at scrape time, so query hot paths
	// stay unobserved-cost-free. Give each database its own registry —
	// samplers are keyed by metric name and a second database would
	// overwrite the first's. Serve it with obs.NewMux or WritePrometheus.
	Metrics *obs.Registry
}

// DefaultConfig returns a laptop-scale configuration with the paper's page
// geometry (s = 2000, l = 0.75), a 256-page buffer pool, and one join
// worker per available CPU.
func DefaultConfig() Config {
	return Config{
		PageSize:       2000,
		BufferPages:    256,
		FillFactor:     0.75,
		IndexOptions:   rtree.DefaultOptions(),
		JoinIndexOrder: 100,
		Workers:        runtime.GOMAXPROCS(0),
	}
}

// Database is an embedded spatial database over a simulated paged disk.
// All collections share one buffer pool, so measured page I/O reflects real
// cache contention between the inner and outer relations of a join.
//
// Read-only operations (Join, Select, SelectStored, Get, IOStats) are safe
// to call from multiple goroutines concurrently. Mutations — Insert,
// CreateCollection, BuildJoinIndex, DropCache, ResetIOStats — require
// external serialization with respect to every other call.
type Database struct {
	cfg         Config
	pool        *storage.BufferPool
	faultDisk   *fault.Disk // nil unless Config.Fault was set
	wal         *wal.Log    // nil unless Config.WAL
	collections map[string]*Collection
	joinIndices map[string]*JoinIndex
	nextTxn     uint64
	poisoned    error // set when a WAL transaction died mid-flight
	closed      bool

	// mu guards the transaction bookkeeping a fuzzy checkpoint must see
	// atomically: nextTxn, activeTxns, and the catalog maps' membership.
	// Queries and in-transaction page work never hold it.
	mu sync.Mutex
	// activeTxns maps every in-flight transaction to its begin LSN, from
	// before its begin record is appended until after its frames learn
	// their commit LSN (see runTxn).
	activeTxns map[uint64]wal.LSN

	ckptMu     sync.Mutex
	ckptTotals CheckpointTotals
	recovered  RecoveryStats // stats of the Reopen that produced this db
}

// Open creates an empty database.
func Open(cfg Config) (*Database, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	var device storage.Device = storage.NewDisk(cfg.PageSize)
	if cfg.Fault != nil {
		device = fault.Wrap(device, *cfg.Fault)
	}
	var lg *wal.Log
	if cfg.WAL {
		// The log claims the device's first file, before any collection
		// exists, so recovery can find it without a catalog.
		var err error
		lg, err = wal.Create(device, cfg.WALGroupCommit)
		if err != nil {
			return nil, err
		}
	}
	db, err := newDatabase(cfg, device, lg, 1)
	if err != nil {
		return nil, err
	}
	db.registerMetrics()
	return db, nil
}

// validate rejects a configuration that Open and Reopen cannot run with.
func (cfg Config) validate() error {
	if cfg.PageSize <= 0 || cfg.BufferPages <= 0 {
		return fmt.Errorf("spatialjoin: page size and buffer pages must be positive")
	}
	if cfg.FillFactor <= 0 || cfg.FillFactor > 1 {
		return fmt.Errorf("spatialjoin: fill factor %g out of (0,1]", cfg.FillFactor)
	}
	if cfg.JoinIndexOrder < 3 {
		return fmt.Errorf("spatialjoin: join index order %d < 3", cfg.JoinIndexOrder)
	}
	if cfg.Workers < 0 {
		return fmt.Errorf("spatialjoin: negative worker count %d", cfg.Workers)
	}
	if cfg.QueryTimeout < 0 {
		return fmt.Errorf("spatialjoin: negative query timeout %v", cfg.QueryTimeout)
	}
	return nil
}

// newDatabase assembles a database over device with an empty catalog: lg
// is its log (nil without a WAL) and nextTxn the first transaction ID it
// hands out.
func newDatabase(cfg Config, device storage.Device, lg *wal.Log, nextTxn uint64) (*Database, error) {
	pool, err := storage.NewBufferPool(device, cfg.BufferPages)
	if err != nil {
		return nil, err
	}
	if cfg.Retry != nil {
		pool.SetRetryPolicy(*cfg.Retry)
	}
	if lg != nil {
		pool.SetWAL(lg)
	}
	fd, _ := device.(*fault.Disk)
	return &Database{
		cfg:         cfg,
		pool:        pool,
		faultDisk:   fd,
		wal:         lg,
		collections: make(map[string]*Collection),
		joinIndices: make(map[string]*JoinIndex),
		nextTxn:     nextTxn,
		activeTxns:  make(map[uint64]wal.LSN),
	}, nil
}

// Metrics returns the registry configured at Open, or nil.
func (db *Database) Metrics() *obs.Registry { return db.cfg.Metrics }

// Collection is a named set of spatial objects, stored in a heap file and
// indexed by an R-tree generalization tree. The heap holds the only
// on-disk copy of each object; the R-tree lives in memory, its entries
// pointing at heap tuples, and Reopen rebuilds it from a heap scan. A
// tree-strategy query reads the heap pages of the tuples it touches, each
// checksum-verified by the buffer pool on every physical read.
type Collection struct {
	db    *Database
	name  string
	rel   *relation.Relation
	table join.Table
	index *rtree.Tree
}

// collectionSchema is the fixed schema of every collection: an arbitrary
// payload string plus the spatial shape.
func collectionSchema() (relation.Schema, error) {
	return relation.NewSchema(
		relation.Column{Name: "payload", Type: relation.TypeString},
		relation.Column{Name: "shape", Type: relation.TypeGeometry},
	)
}

// CreateCollection makes an empty collection. Names must be unique. Under a
// WAL the creation is a transaction carrying the collection's catalog
// record, so recovery knows which files the collection owns.
func (db *Database) CreateCollection(name string) (*Collection, error) {
	if name == "" {
		return nil, fmt.Errorf("spatialjoin: empty collection name")
	}
	if _, dup := db.collections[name]; dup {
		return nil, fmt.Errorf("spatialjoin: collection %q already exists", name)
	}
	var c *Collection
	err := db.runTxn(func(txn uint64) error {
		sch, err := collectionSchema()
		if err != nil {
			return err
		}
		rel, err := relation.Create(db.pool, name, sch, db.cfg.FillFactor)
		if err != nil {
			return err
		}
		table, err := join.NewTable(rel, 1, db.pool)
		if err != nil {
			return err
		}
		index, err := rtree.New(db.cfg.IndexOptions)
		if err != nil {
			return err
		}
		c = &Collection{db: db, name: name, rel: rel, table: table, index: index}
		if db.wal != nil {
			_, err = db.wal.AppendCatalog(txn, wal.RecNewCollection,
				wal.EncodeNewCollection(wal.NewCollection{Name: name, HeapFile: rel.FileID()}))
			return err
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	db.mu.Lock()
	db.collections[name] = c
	db.mu.Unlock()
	return c, nil
}

// Collection returns the named collection.
func (db *Database) Collection(name string) (*Collection, bool) {
	c, ok := db.collections[name]
	return c, ok
}

// ResetIOStats zeroes the shared buffer pool counters; measurements after a
// reset start from a warm (still-resident) cache. Use DropCache for cold
// measurements.
func (db *Database) ResetIOStats() { db.pool.ResetStats() }

// DropCache flushes and empties the buffer pool so the next query runs
// cold.
func (db *Database) DropCache() error { return db.pool.DropAll() }

// IOStats returns the shared pool's counters since the last reset.
func (db *Database) IOStats() storage.PoolStats { return db.pool.Stats() }

// DiskStats returns the device-level transfer counters, including injected
// fault attempts when the database runs over a fault device.
func (db *Database) DiskStats() storage.DiskStats { return db.pool.Disk().Stats() }

// FaultDisk returns the fault-injecting device the database runs over, or
// nil when Config.Fault was not set. Chaos tests use it to mark pages lost
// or torn mid-run.
func (db *Database) FaultDisk() *fault.Disk { return db.faultDisk }

// Device returns the simulated disk the database runs over. A crash
// harness keeps it across the crash and hands it to Reopen: the device is
// the only state that survives.
func (db *Database) Device() storage.Device { return db.pool.Disk() }

// Flush makes every committed change durable: the log first (write-ahead),
// then all committed dirty pages. Under a WAL it refuses to write back
// pages held by a failed in-flight transaction.
func (db *Database) Flush() error {
	if db.wal != nil {
		if err := db.wal.Sync(); err != nil {
			return err
		}
	}
	return db.pool.Flush()
}

// Close shuts the database down cleanly: the log's group-commit buffer is
// forced durable (even when no dirty frame would otherwise demand a sync),
// every committed dirty page is written back, and all later calls are
// refused. Closing a poisoned database syncs the log — earlier committed
// transactions may still sit in the group-commit buffer — but leaves the
// half-mutated pages for recovery, and reports the poisoning error.
// Closing twice is a no-op.
func (db *Database) Close() error {
	db.mu.Lock()
	if db.closed {
		db.mu.Unlock()
		return nil
	}
	db.closed = true
	poisoned := db.poisoned
	db.mu.Unlock()
	if poisoned != nil {
		if db.wal != nil {
			if err := db.wal.Close(); err != nil {
				return err
			}
		}
		return poisoned
	}
	return db.pool.Close()
}

// WALStats returns the write-ahead log's counters; zero when WAL is off.
func (db *Database) WALStats() wal.Stats {
	if db.wal == nil {
		return wal.Stats{}
	}
	return db.wal.Stats()
}

// Name returns the collection's name.
func (c *Collection) Name() string { return c.name }

// Len returns the number of stored objects.
func (c *Collection) Len() int { return c.rel.Len() }

// Pages returns the number of disk pages the collection occupies.
func (c *Collection) Pages() int { return c.rel.NumPages() }

// IndexHeight returns the height of the collection's R-tree.
func (c *Collection) IndexHeight() int { return c.index.Height() }

// ErrInvalidGeometry is returned (wrapped) by Insert for a shape, and by
// SelectContext for a selector, whose bounds are not finite: a NaN or
// infinite MBR makes tree-strategy answers diverge from the scan's.
var ErrInvalidGeometry = errors.New("spatialjoin: invalid geometry")

// finiteRect reports whether every coordinate of r is neither NaN nor ±Inf.
func finiteRect(r Rect) bool {
	for _, v := range [4]float64{r.MinX, r.MinY, r.MaxX, r.MaxY} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// Insert stores the object with an arbitrary payload string and returns its
// ID. Any precomputed join index involving this collection is maintained
// incrementally — at the full cost the paper warns about. Under a WAL the
// whole multi-page update (heap insert + join-index maintenance) is one
// transaction: a crash at any point leaves either all of it or none of it.
// A nil shape, or one whose bounds are not finite (ErrInvalidGeometry), is
// rejected before any transaction opens, leaving the database usable.
func (c *Collection) Insert(shape Spatial, payload string) (int, error) {
	if shape == nil {
		return 0, fmt.Errorf("spatialjoin: nil shape")
	}
	if b := shape.Bounds(); !finiteRect(b) {
		return 0, fmt.Errorf("%w: bounds %v are not finite", ErrInvalidGeometry, b)
	}
	var id int
	err := c.db.runTxn(func(uint64) error {
		var err error
		id, err = c.rel.Insert(relation.Tuple{payload, shape})
		if err != nil {
			return err
		}
		c.index.Insert(shape, id)
		return c.db.maintainJoinIndices(c, id, shape)
	})
	if err != nil {
		return 0, err
	}
	return id, nil
}

// Get returns the object's shape and payload.
func (c *Collection) Get(id int) (Spatial, string, error) {
	t, err := c.rel.Get(id)
	if err != nil {
		return nil, "", err
	}
	shape, err := c.rel.Schema().SpatialValue(t, 1)
	if err != nil {
		return nil, "", err
	}
	return shape, t[0].(string), nil
}
