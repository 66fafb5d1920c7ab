package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"spatialjoin"
	"spatialjoin/internal/datagen"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/obs"
	"spatialjoin/internal/repl"
	"spatialjoin/internal/server"
	"spatialjoin/internal/wire"
)

const (
	// ingestRate is the open-loop rate of inserts and of replica reads.
	ingestRate = 100
	// ingestGroup is the primary's fixed flush policy: one log sync per
	// eight commits.
	ingestGroup = 8
	// ingestRects is the base dataset size per collection (join-hot's).
	ingestRects = 2000
	// catchUp bounds the wait for the replica to absorb every insert.
	catchUp = 30 * time.Second
)

// ingestStack is a WAL primary serving replication, a follower attached
// over loopback, and a read-only replica server answering from the
// follower, as `sjoind -wal` and `sjoind -replicate-from` wire them.
type ingestStack struct {
	db      *spatialjoin.Database
	s       *spatialjoin.Collection
	src     *repl.Source
	primary *served
	regP    *obs.Registry
	f       *repl.Follower
	regR    *obs.Registry
	replica *served
	client  *wire.Client
}

func ingestConfig() spatialjoin.Config {
	cfg := spatialjoin.DefaultConfig()
	cfg.WAL = true
	cfg.WALGroupCommit = ingestGroup
	return cfg
}

func buildIngestStack(d dataset) (st *ingestStack, err error) {
	st = &ingestStack{regP: obs.NewRegistry(), regR: obs.NewRegistry()}
	defer func() {
		if err != nil {
			st.close()
		}
	}()
	cfg := ingestConfig()
	cfg.Metrics = st.regP
	if st.db, _, st.s, err = loadDB(cfg, d); err != nil {
		return nil, err
	}
	if st.src, err = repl.NewSource(st.db, repl.SourceOptions{Metrics: st.regP}); err != nil {
		return nil, err
	}
	if st.primary, err = serve(st.db, server.Options{Repl: st.src, Metrics: st.regP}); err != nil {
		return nil, err
	}
	if st.f, err = repl.NewFollower(repl.FollowerOptions{
		Addr: st.primary.addr, Config: ingestConfig(), Metrics: st.regR,
	}); err != nil {
		return nil, err
	}
	st.f.Start()
	if err = st.waitReplica(len(d.s)); err != nil {
		return nil, err
	}
	if st.replica, err = serve(nil, server.Options{DB: st.f.Acquire, Metrics: st.regR}); err != nil {
		return nil, err
	}
	st.client, err = wire.Dial(st.replica.addr)
	return st, err
}

// replicaLen is the length of the replica's s collection, or -1 while it
// has none to offer.
func (st *ingestStack) replicaLen() int {
	db, release, err := st.f.Acquire()
	if err != nil {
		return -1
	}
	defer release()
	s, ok := db.Collection("s")
	if !ok {
		return -1
	}
	return s.Len()
}

// waitReplica polls until the replica's s holds n rectangles.
func (st *ingestStack) waitReplica(n int) error {
	deadline := time.Now().Add(catchUp)
	for st.replicaLen() < n {
		if time.Now().After(deadline) {
			return fmt.Errorf("replica holds %d of %d rectangles after %v", st.replicaLen(), n, catchUp)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

func (st *ingestStack) close() error {
	var firstErr error
	keep := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if st.client != nil {
		st.client.Close()
	}
	if st.replica != nil {
		keep(st.replica.stop())
	}
	if st.f != nil {
		st.f.Close()
	}
	if st.primary != nil {
		keep(st.primary.stop())
	}
	if st.src != nil {
		st.src.Close()
	}
	if st.db != nil {
		keep(st.db.Close())
	}
	return firstErr
}

// episode is the longest stretch of load one ingest stack takes. The
// replica reopens through recovery for every shipped commit, and the
// reopen grows with the replica's log: past about ten seconds at
// ingestRate its lock is held most of the time and replica read latency
// turns bimodal. A longer window is split into equal episodes, each on a
// freshly built stack, so every episode sees the same log growth.
const episode = 8 * time.Second

// ingestRun is the ingest workload's run state.
type ingestRun struct {
	d      dataset
	all    []geom.Rect // s as the primary will hold it: base, then the stream
	probes []geom.Rect
	st     *ingestStack
	acked  atomic.Int64 // inserts acknowledged by the current stack
}

// build builds a fresh stack; it is setUp's build step.
func (ir *ingestRun) build() (func() error, error) {
	st, err := buildIngestStack(ir.d)
	if err != nil {
		return nil, err
	}
	ir.st = st
	ir.acked.Store(0)
	return ir.closeStack, nil
}

func (ir *ingestRun) closeStack() error {
	if ir.st == nil {
		return nil
	}
	err := ir.st.close()
	ir.st = nil
	return err
}

// window is what the episodes of one measured window observed. visible
// holds one sample per insert, from its due time to when the replica
// showed it through Acquire.
type window struct {
	reads, inserts, visible []sample
	counts                  map[string]float64 // counter deltas, summed over episodes
	secs                    float64            // load time, summed over episodes
	visibleSpan             time.Duration      // elapsed(visible), summed over episodes
}

// measure runs o.window of load as equal episodes of at most episode
// each. The first runs on the current stack; each later one on a fresh
// stack, whose build rep charges to set-up.
func (ir *ingestRun) measure(o options, rep *report, t *tracer) (*window, error) {
	n := int((o.window + episode - 1) / episode)
	length := o.window / time.Duration(n)
	all := &window{counts: make(map[string]float64)}
	for e := 0; e < n; e++ {
		if e > 0 {
			if err := ir.closeStack(); err != nil {
				return nil, err
			}
			if _, err := rep.build(ir.build); err != nil {
				return nil, err
			}
		}
		w, err := ir.runEpisode(length, t)
		if err != nil {
			return nil, err
		}
		all.reads = append(all.reads, w.reads...)
		all.inserts = append(all.inserts, w.inserts...)
		all.visible = append(all.visible, w.visible...)
		for k, v := range w.counts {
			all.counts[k] += v
		}
		all.secs += w.secs
		all.visibleSpan += elapsed(w.visible)
	}
	return all, nil
}

// runEpisode drives the open loop for length on a fresh stack: inserts
// into the primary's s through the library and selects over the wire to
// the replica, each at ingestRate, plus a visibility poll on this
// goroutine. It ends once the replica holds every acknowledged insert and
// is byte-identical to the primary.
func (ir *ingestRun) runEpisode(length time.Duration, t *tracer) (*window, error) {
	every := time.Second / ingestRate
	if need := int(length/every) + 1; need > len(ir.all)-len(ir.d.s) {
		return nil, fmt.Errorf("ingest stream holds %d rects, an episode needs %d", len(ir.all)-len(ir.d.s), need)
	}
	st := ir.st
	st.db.Device().ResetStats()
	wal0 := st.db.WALStats()
	repl0, err := scrape(st.regR)
	if err != nil {
		return nil, err
	}
	start := time.Now().Add(20 * time.Millisecond)
	end := start.Add(length)
	due := func(k int) time.Time { return start.Add(time.Duration(k) * every) }

	w := &window{secs: length.Seconds()}
	var wg sync.WaitGroup
	var insertErr, readErr error
	wg.Add(2)
	go func() {
		defer wg.Done()
		w.inserts, insertErr = openLoop(start, every, end, func(k int) (time.Time, bool, error) {
			err := t.traceOp(context.Background(), "bench.insert", func(context.Context) error {
				_, err := st.s.Insert(ir.all[len(ir.d.s)+k], "")
				return err
			})
			answered := time.Now()
			if err != nil {
				return answered, false, err
			}
			ir.acked.Add(1)
			return answered, true, nil
		})
	}()
	go func() {
		defer wg.Done()
		w.reads, readErr = openLoop(start.Add(every/2), every, end, func(k int) (time.Time, bool, error) {
			return ir.read(t, k)
		})
	}()

	// Insert k is visible once the replica's s holds base+k+1 rectangles.
	poll := func() {
		n := st.replicaLen() - len(ir.d.s)
		now := time.Now()
		for k := len(w.visible); k < n; k++ {
			w.visible = append(w.visible, sample{due: due(k), began: due(k), answered: now, ok: true})
		}
	}
	for time.Now().Before(end) {
		poll()
		time.Sleep(time.Millisecond)
	}
	wg.Wait()
	if insertErr != nil {
		return nil, fmt.Errorf("insert: %w", insertErr)
	}
	if readErr != nil {
		return nil, readErr
	}
	// Group commit leaves up to ingestGroup-1 acknowledged inserts in the
	// log buffer; force them durable so the replica can catch up.
	if err := st.db.Flush(); err != nil {
		return nil, err
	}
	deadline := time.Now().Add(catchUp)
	for len(w.visible) < len(w.inserts) {
		if time.Now().After(deadline) {
			return nil, wrong("replica shows %d of %d acknowledged inserts after %v", len(w.visible), len(w.inserts), catchUp)
		}
		time.Sleep(time.Millisecond)
		poll()
	}
	if err := ir.verify(); err != nil {
		return nil, err
	}

	disk := st.db.DiskStats()
	wal1 := st.db.WALStats()
	repl1, err := scrape(st.regR)
	if err != nil {
		return nil, err
	}
	delta := func(name string) float64 { return family(repl1, name) - family(repl0, name) }
	w.counts = map[string]float64{
		"device_writes":   float64(disk.Writes),
		"wal_bytes":       float64(wal1.BytesLogged - wal0.BytesLogged),
		"wal_syncs":       float64(wal1.Syncs - wal0.Syncs),
		"wal_page_writes": float64(wal1.PageWrites - wal0.PageWrites),
		"repl_refreshes":  delta("spatialjoin_repl_refreshes_total"),
		"repl_bytes":      delta("spatialjoin_repl_bytes_total"),
		"repl_chunks":     delta("spatialjoin_repl_chunks_total"),
		"repl_stale":      delta("spatialjoin_repl_stale_rejections_total"),
		"queries":         delta("spatialjoin_server_queries_total"),
		"shed":            delta("spatialjoin_server_queries_shed_total"),
	}
	return w, nil
}

// read selects one probe window on the replica over the wire and checks
// the answer is sound: the replica may trail the primary, so it must hold
// the base rectangles overlapping the probe and nothing that was not
// inserted or does not overlap it.
func (ir *ingestRun) read(t *tracer, k int) (time.Time, bool, error) {
	probe := ir.probes[k%len(ir.probes)]
	var res *wire.Result
	err := t.traceOp(context.Background(), "bench.select", func(ctx context.Context) error {
		var err error
		res, err = ir.st.client.Select(ctx, "s", probe, wire.Overlaps(), wire.StrategyTree)
		return err
	})
	answered := time.Now()
	if err != nil {
		return answered, false, err
	}
	if res.Err() != nil {
		return answered, false, nil
	}
	known := len(ir.d.s) + int(ir.acked.Load())
	if err := soundIDs(res.IDs, ir.all[:known], len(ir.d.s), probe); err != nil {
		return answered, false, wrong("replica select: %v", err)
	}
	return answered, true, nil
}

// runIngest runs the ingest-replica workload. Its operation is an insert
// into the primary, timed from its due time until it is visible on the
// replica; the replica reads beside it are reported per layer.
func runIngest(o options) (*report, error) {
	ir := &ingestRun{d: genDataset(o.seed, ingestRects)}
	n := int(episode.Seconds()*ingestRate) + ingestRate
	stream := datagen.ClusteredRects(rand.New(rand.NewSource(o.seed+3)), n, 16, ir.d.world, worldSide/8, worldSide/150)
	ir.all = append(append([]geom.Rect(nil), ir.d.s...), stream...)
	ir.probes = probes(rand.New(rand.NewSource(o.seed+1)), 4096, ir.d.world, probeFrac)

	rep := newReport(o)
	if _, err := setUp(o, rep, ir.build); err != nil {
		return nil, err
	}
	defer ir.closeStack()

	w, err := ir.measure(o, rep, nil)
	if err != nil {
		return rep, err
	}
	rep.count(w.reads)
	rep.count(w.inserts)
	if err := rep.ops("inserts made visible on the replica", w.visible, w.visibleSpan, 99); err != nil {
		return rep, err
	}
	reads, readLate, readFailed := tally(w.reads)
	ins, insLate, _ := tally(w.inserts)
	L := rep.layer
	L["ingest.read_p50_ms"] = ms(percentile(reads, 50))
	L["ingest.read_p99_ms"] = ms(percentile(reads, 99))
	L["ingest.insert_p50_us"] = us(percentile(ins, 50))
	L["ingest.insert_p99_us"] = us(percentile(ins, 99))
	L["load.late_p99_ms"] = ms(percentile(append(insLate, readLate...), 99))
	rep.note("replica reads: %d served, %d failed; p50 %.3f ms, p99 %.3f ms from the due time",
		len(reads), readFailed, L["ingest.read_p50_ms"], L["ingest.read_p99_ms"])
	rep.note("inserts: %d at %d/s; library call p50 %.1f us, p99 %.1f us from the due time",
		len(ins), ingestRate, L["ingest.insert_p50_us"], L["ingest.insert_p99_us"])

	inserted := float64(len(w.inserts))
	c := w.counts
	L["storage.device_writes_per_insert"] = c["device_writes"] / inserted
	L["wal.bytes_per_insert"] = c["wal_bytes"] / inserted
	L["wal.syncs_per_insert"] = c["wal_syncs"] / inserted
	L["wal.page_writes_per_insert"] = c["wal_page_writes"] / inserted
	L["repl.refreshes_per_s"] = c["repl_refreshes"] / w.secs
	L["repl.bytes_per_insert"] = c["repl_bytes"] / inserted
	L["repl.chunks_per_s"] = c["repl_chunks"] / w.secs
	L["repl.stale_ratio"] = c["repl_stale"] / float64(len(w.reads))
	if c["queries"] > 0 {
		L["server.shed_ratio"] = c["shed"] / c["queries"]
	}

	dev, err := deviceBytes(ir.st.db)
	if err != nil {
		return rep, err
	}
	rep.e2e["bytes_per_user_byte"] = dev / float64(rectBytes*(len(ir.d.r)+ir.st.s.Len()))
	if !o.trace {
		return rep, nil
	}
	// The traced window starts on a fresh stack too.
	if err := ir.closeStack(); err != nil {
		return rep, err
	}
	if _, err := ir.build(); err != nil {
		return rep, err
	}
	return rep, ir.layers(o, rep, medianDur(reads))
}

// verify checks, with the primary quiet, that the replica holds every
// acknowledged insert and is byte-identical to the primary.
func (ir *ingestRun) verify() error {
	st := ir.st
	want := len(ir.d.s) + int(ir.acked.Load())
	if got := st.s.Len(); got != want {
		return wrong("primary s holds %d rects, %d were acknowledged", got, want)
	}
	pr, _ := st.db.Collection("r")
	fpP, err := fingerprint(pr, st.s)
	if err != nil {
		return err
	}
	db, release, err := st.f.Acquire()
	if err != nil {
		return err
	}
	defer release()
	rr, okR := db.Collection("r")
	rs, okS := db.Collection("s")
	if !okR || !okS {
		return wrong("replica lacks collection r or s")
	}
	if rs.Len() != want {
		return wrong("replica s holds %d rects, %d were acknowledged", rs.Len(), want)
	}
	fpR, err := fingerprint(rr, rs)
	if err != nil {
		return err
	}
	if fpR != fpP {
		return wrong("replica fingerprint %016x differs from the primary's %016x", fpR, fpP)
	}
	return nil
}

// layers runs the traced window, the one-in-flight probe on the replica,
// and the layer measurements of the ingest workload.
func (ir *ingestRun) layers(o options, rep *report, untracedP50 time.Duration) error {
	t := &tracer{}
	w, err := ir.measure(o, rep, t)
	if err != nil {
		return err
	}
	rep.count(w.reads)
	rep.count(w.inserts)
	rep.tracer = t
	reads, _, _ := tally(w.reads)
	L := rep.layer
	L["trace.overhead_pct"] = 100 * (float64(medianDur(reads))/float64(untracedP50) - 1)
	spanFigures(L, t, "bench.select", "wire.select", "select")

	// One-in-flight probe against the quiet replica.
	db, release, err := ir.st.f.Acquire()
	if err != nil {
		return err
	}
	release()
	db.ResetIOStats()
	s := ir.all[:len(ir.d.s)+int(ir.acked.Load())]
	var p probeTally
	for i := 0; i < 200; i++ {
		probe := ir.probes[i]
		res, err := ir.st.client.Select(context.Background(), "s", probe, wire.Overlaps(), wire.StrategyTree)
		if err != nil {
			return err
		}
		if err := res.Err(); err != nil {
			return fmt.Errorf("serial probe read %d refused: %w", i, err)
		}
		if err := sameIDs(res.IDs, bruteSelect(s, probe)); err != nil {
			return wrong("quiet replica select: %v", err)
		}
		p.add(res)
	}
	p.set(L, db.IOStats())

	// Layer prices outside the serving stack.
	if L["rtree.insert_us"], err = rtreeInsertUs(ir.d.s, s[len(ir.d.s):]); err != nil {
		return err
	}
	if L["spatialjoin.reopen_ms"], err = reopenMs(ir.st.db); err != nil {
		return err
	}
	return selectPrices(L, o.seed, ir.probes, s, append(append([]geom.Rect(nil), ir.d.r...), s...))
}

// reopenMs prices a replica refresh: Reopen through recovery of a device
// seeded from a snapshot exported by the (quiet) primary.
func reopenMs(primary *spatialjoin.Database) (float64, error) {
	var snap bytes.Buffer
	if _, err := primary.ExportSnapshot(&snap); err != nil {
		return 0, err
	}
	cfg := ingestConfig()
	seeded, _, err := spatialjoin.SeedFromSnapshot(cfg, &snap)
	if err != nil {
		return 0, err
	}
	dev := seeded.Device()
	if err := seeded.Close(); err != nil {
		return 0, err
	}
	d, err := timeBatches(func() error {
		db, _, err := spatialjoin.Reopen(cfg, dev)
		if err != nil {
			return err
		}
		return db.Close()
	})
	return ms(d), err
}
