// Command sjoin runs measured spatial joins and selections on the
// simulated disk: it generates a synthetic workload, executes one or all of
// the paper's strategies, and prints result counts, predicate evaluations,
// page I/O and the weighted cost (C_Θ = 1, C_IO = 1000 as in Table 3).
//
// Usage:
//
//	sjoin -n 500 -op overlaps -strategy all
//	sjoin -n 1000 -op within:50 -strategy tree -layout shuffled
//	sjoin -mode select -n 2000 -op reachable:10:1
//	sjoin -strategy tree -explain
//	sjoin -metrics-addr 127.0.0.1:8080 -serve-for 1m
//
// The workload is a pair of model generalization trees (clustered or
// shuffled page layout) over uniformly random nested rectangles in a
// 1000×1000 world. With -explain the run is traced and an EXPLAIN ANALYZE
// section follows the result table: the span tree of the query and a
// per-level table placing measured physical reads beside the cost model's
// per-level C_II/D_II I/O terms. With -metrics-addr the process serves
// /metrics (Prometheus text), /debug/vars (expvar), and net/http/pprof.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"
	"time"

	"spatialjoin/internal/core"
	"spatialjoin/internal/costmodel"
	"spatialjoin/internal/datagen"
	"spatialjoin/internal/fault"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/join"
	"spatialjoin/internal/obs"
	"spatialjoin/internal/pred"
	"spatialjoin/internal/relation"
	"spatialjoin/internal/storage"
)

func main() {
	var (
		mode        = flag.String("mode", "join", "join or select")
		k           = flag.Int("k", 4, "generalization tree fanout")
		height      = flag.Int("height", 4, "generalization tree height")
		opSpec      = flag.String("op", "overlaps", "operator: overlaps | within:D | nw | includes | containedin | reachable:MIN:SPEED")
		strategy    = flag.String("strategy", "all", "tree | scan | index | all")
		layout      = flag.String("layout", "clustered", "clustered | shuffled")
		buffer      = flag.Int("buffer", 64, "buffer pool pages (M)")
		seed        = flag.Int64("seed", 1, "workload seed")
		timeout     = flag.Duration("timeout", 0, "abort the run after this long (0 = no limit)")
		faultSeed   = flag.Int64("fault-seed", 1, "seed of the injected fault schedule")
		faultRate   = flag.Float64("fault-rate", 0, "transient fault probability per physical page transfer (0 = healthy disk)")
		explain     = flag.Bool("explain", false, "trace the run and print EXPLAIN ANALYZE: the span tree plus per-level measured I/O beside cost-model terms")
		metricsAddr = flag.String("metrics-addr", "", "serve /metrics, /debug/vars, and pprof on this address during the run")
		serveFor    = flag.Duration("serve-for", 0, "with -metrics-addr: keep serving this long after the run completes")
		useWAL      = flag.Bool("wal", false, "run the workload through the Database API with a write-ahead log (every insert a transaction)")
		walGroup    = flag.Int("wal-group", 1, "WAL group-commit size (<=1 syncs on every commit)")
		crashAt     = flag.Int64("crash-at", 0, "with -wal: crash the device after this many physical page writes, then recover (0 = no crash)")
		doRecover   = flag.Bool("recover", false, "with -wal: run recovery and print its ledger even without a crash")
		ckptEvery   = flag.Int("checkpoint-every", 0, "with -wal: take a truncating fuzzy checkpoint after every N inserts (0 = never)")
		exportSnap  = flag.String("export-snapshot", "", "with -wal: write a snapshot of the final state to this file")
		seedFrom    = flag.String("seed-from", "", "with -wal: seed the database from a snapshot file instead of loading the workload")
	)
	flag.Parse()

	if *useWAL {
		if err := runWAL(os.Stdout, walOptions{
			k: *k, height: *height, op: *opSpec, strategy: *strategy,
			buffer: *buffer, seed: *seed, faultSeed: *faultSeed, group: *walGroup,
			crashAt: *crashAt, doRecover: *doRecover,
			ckptEvery: *ckptEvery, exportPath: *exportSnap, seedPath: *seedFrom,
		}); err != nil {
			fmt.Fprintln(os.Stderr, "sjoin:", err)
			os.Exit(1)
		}
		return
	}
	if *crashAt != 0 || *doRecover {
		fmt.Fprintln(os.Stderr, "sjoin: -crash-at and -recover require -wal")
		os.Exit(1)
	}
	if *ckptEvery != 0 || *exportSnap != "" || *seedFrom != "" {
		fmt.Fprintln(os.Stderr, "sjoin: -checkpoint-every, -export-snapshot, and -seed-from require -wal")
		os.Exit(1)
	}
	o := options{
		mode:        *mode,
		k:           *k,
		height:      *height,
		op:          *opSpec,
		strategy:    *strategy,
		layout:      *layout,
		buffer:      *buffer,
		seed:        *seed,
		timeout:     *timeout,
		faultSeed:   *faultSeed,
		faultRate:   *faultRate,
		explain:     *explain,
		metricsAddr: *metricsAddr,
		serveFor:    *serveFor,
	}
	if err := run(os.Stdout, o); err != nil {
		fmt.Fprintln(os.Stderr, "sjoin:", err)
		os.Exit(1)
	}
}

// parseOp turns the -op flag into an operator.
func parseOp(spec string) (pred.Operator, error) {
	parts := strings.Split(spec, ":")
	switch parts[0] {
	case "overlaps":
		return pred.Overlaps{}, nil
	case "within":
		if len(parts) != 2 {
			return nil, fmt.Errorf("within needs a distance: within:50")
		}
		d, err := strconv.ParseFloat(parts[1], 64)
		if err != nil {
			return nil, err
		}
		return pred.WithinDistance{D: d}, nil
	case "nw":
		return pred.NorthwestOf{}, nil
	case "includes":
		return pred.Includes{}, nil
	case "containedin":
		return pred.ContainedIn{}, nil
	case "reachable":
		if len(parts) != 3 {
			return nil, fmt.Errorf("reachable needs minutes and speed: reachable:10:1")
		}
		min, err := strconv.ParseFloat(parts[1], 64)
		if err != nil {
			return nil, err
		}
		speed, err := strconv.ParseFloat(parts[2], 64)
		if err != nil {
			return nil, err
		}
		return pred.ReachableWithin{Minutes: min, Speed: speed}, nil
	default:
		return nil, fmt.Errorf("unknown operator %q", spec)
	}
}

// workload is one stored relation plus its generalization tree.
type workload struct {
	table join.Table
	tree  core.Tree
}

// buildWorkload loads a model tree's tuples into a relation with the chosen
// layout.
func buildWorkload(pool *storage.BufferPool, seed int64, k, height int,
	placement relation.Placement, name string) (workload, error) {

	rng := rand.New(rand.NewSource(seed))
	world := geom.NewRect(0, 0, 1000, 1000)
	tree, n := datagen.ModelTree(rng, world, k, height)
	rects := make([]geom.Rect, n)
	core.Walk(tree, func(nd core.Node, _ int) bool {
		if id, ok := nd.Tuple(); ok {
			rects[id] = nd.Bounds()
		}
		return true
	})
	sch, err := relation.NewSchema(
		relation.Column{Name: "id", Type: relation.TypeInt64},
		relation.Column{Name: "mbr", Type: relation.TypeRect},
	)
	if err != nil {
		return workload{}, err
	}
	tuples := make([]relation.Tuple, n)
	for i := range tuples {
		tuples[i] = relation.Tuple{int64(i), rects[i]}
	}
	rel, err := relation.BulkLoad(pool, name, sch, tuples, placement, 0.75, seed)
	if err != nil {
		return workload{}, err
	}
	table, err := join.NewTable(rel, 1, pool)
	if err != nil {
		return workload{}, err
	}
	return workload{table: table, tree: tree}, nil
}

// options is run's full knob surface (the non-WAL flags).
type options struct {
	mode        string
	k, height   int
	op          string
	strategy    string
	layout      string
	buffer      int
	seed        int64
	timeout     time.Duration
	faultSeed   int64
	faultRate   float64
	explain     bool
	metricsAddr string
	serveFor    time.Duration
}

func run(out io.Writer, o options) (err error) {
	op, err := parseOp(o.op)
	if err != nil {
		return err
	}
	placement := relation.PlaceSequential
	switch o.layout {
	case "clustered":
	case "shuffled":
		placement = relation.PlaceShuffled
	default:
		return fmt.Errorf("unknown layout %q", o.layout)
	}
	if o.faultRate < 0 || o.faultRate >= 1 {
		return fmt.Errorf("fault rate %g out of [0, 1)", o.faultRate)
	}
	var device storage.Device = storage.NewDisk(2000)
	if o.faultRate > 0 {
		device = fault.Wrap(device, fault.Options{
			Seed:               o.faultSeed,
			TransientReadRate:  o.faultRate,
			TransientWriteRate: o.faultRate / 2,
		})
	}
	pool, err := storage.NewBufferPool(device, o.buffer)
	if err != nil {
		return err
	}
	if o.faultRate > 0 {
		// A budget that outlasts the configured rate with high probability;
		// zero base delay keeps the demo fast.
		pool.SetRetryPolicy(storage.RetryPolicy{MaxAttempts: 10, Seed: o.faultSeed})
	}
	if o.metricsAddr != "" {
		reg := obs.NewRegistry()
		registerPoolMetrics(reg, pool)
		closeMetrics, err := serveMetrics(out, o.metricsAddr, reg)
		if err != nil {
			return err
		}
		defer closeMetrics()
	}
	ctx := context.Background()
	if o.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, o.timeout)
		defer cancel()
	}
	var trace *obs.Trace
	if o.explain {
		ctx, trace = obs.WithTrace(ctx)
	}
	r, err := buildWorkload(pool, o.seed, o.k, o.height, placement, "R")
	if err != nil {
		return err
	}
	s, err := buildWorkload(pool, o.seed+1, o.k, o.height, placement, "S")
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "workload: two %d-ary trees of height %d (%d tuples each), %s layout, M=%d pages, op=%s\n",
		o.k, o.height, r.table.Rel.Len(), o.layout, o.buffer, op.Name())

	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', tabwriter.AlignRight)
	defer func() {
		// The table is the program's output: failing to render it is fatal,
		// not a silently dropped error.
		if ferr := w.Flush(); err == nil {
			err = ferr
		}
	}()
	fmt.Fprintf(w, "strategy\tresults\tfilter evals\texact evals\tpage reads\tindex reads\tcost\t\n")

	// treeResults feeds the explain section's selectivity estimate; -1
	// records that the tree strategy did not run.
	treeResults := -1
	report := func(name string, results int, st join.Stats) {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\t%d\t%.4g\t\n",
			name, results, st.FilterEvals, st.ExactEvals, st.PageReads, st.IndexReads,
			st.Cost(1, 1000))
	}
	cold := func() error {
		if err := pool.DropAll(); err != nil {
			return err
		}
		pool.ResetStats()
		return nil
	}
	epilogue := func() error {
		if err := finish(out, w, pool); err != nil {
			return err
		}
		if o.explain {
			if err := printExplain(out, trace, o, pool.Disk().PageSize(),
				r.table.Rel.NumPages(), r.table.Rel.Len(), treeResults); err != nil {
				return err
			}
		}
		if o.metricsAddr != "" && o.serveFor > 0 {
			time.Sleep(o.serveFor)
		}
		return nil
	}

	want := func(name string) bool { return o.strategy == "all" || o.strategy == name }
	if !want("tree") && !want("scan") && !want("index") {
		return fmt.Errorf("unknown strategy %q", o.strategy)
	}

	if o.mode == "select" {
		sel := geom.NewRect(100, 100, 400, 420)
		if want("scan") {
			if err := cold(); err != nil {
				return err
			}
			ids, st, err := join.ExhaustiveSelect(ctx, r.table, sel, op)
			if err != nil {
				return err
			}
			report("scan", len(ids), st)
		}
		if want("tree") {
			if err := cold(); err != nil {
				return err
			}
			ids, st, err := join.TreeSelect(ctx, r.tree, r.table, sel, op, core.BreadthFirst)
			if err != nil {
				return err
			}
			treeResults = len(ids)
			report("tree", len(ids), st)
		}
		if want("index") {
			fmt.Fprintln(out, "note: join indices cannot answer ad-hoc selections (skipped)")
		}
		return epilogue()
	}
	if o.mode != "join" {
		return fmt.Errorf("unknown mode %q", o.mode)
	}

	if want("scan") {
		if err := cold(); err != nil {
			return err
		}
		pairs, st, err := join.NestedLoop(ctx, r.table, s.table, op, 1)
		if err != nil {
			return err
		}
		report("scan", len(pairs), st)
	}
	if want("tree") {
		if err := cold(); err != nil {
			return err
		}
		pairs, st, err := join.TreeJoin(ctx, r.tree, r.table, s.tree, s.table, op, 1)
		if err != nil {
			return err
		}
		treeResults = len(pairs)
		report("tree", len(pairs), st)
	}
	if want("index") {
		ix, buildStats, err := join.BuildIndex(r.table, s.table, op, 100)
		if err != nil {
			return err
		}
		if err := cold(); err != nil {
			return err
		}
		pairs, st, err := join.IndexJoin(ctx, ix, r.table, s.table)
		if err != nil {
			return err
		}
		report("index", len(pairs), st)
		fmt.Fprintf(out, "note: index build cost %.4g (%d evals) amortized over queries\n",
			buildStats.Cost(1, 1000), buildStats.ExactEvals)
	}
	return epilogue()
}

// printExplain renders the EXPLAIN ANALYZE section: the recorded span tree,
// then — when the tree strategy ran — a per-level table placing the
// measured descent (qualifying entries, predicate counts, physical reads)
// beside the cost model's per-level I/O terms, and the reads-sum identity
// the tracer guarantees (level reads telescope to the strategy's total).
func printExplain(out io.Writer, trace *obs.Trace, o options,
	pageSize, relPages, nTuples, treeResults int) error {

	fmt.Fprintln(out)
	fmt.Fprintln(out, "explain analyze:")
	if err := trace.WriteTree(out); err != nil {
		return err
	}
	levels := trace.SpansNamed("level")
	if len(levels) == 0 || treeResults < 0 {
		return nil
	}
	sort.Slice(levels, func(i, j int) bool {
		a, _ := levels[i].IntAttr("level")
		b, _ := levels[j].IntAttr("level")
		return a < b
	})

	// Configure the §4 model to this workload: the real fanout, height, and
	// buffer size, a tuple size that reproduces the relation's actual page
	// count, and the measured result fraction as the selectivity estimate.
	N := float64(nTuples)
	prm := costmodel.PaperParams()
	prm.Nlevels = o.height
	prm.K = o.k
	prm.H = o.height
	prm.T = N
	prm.S = float64(pageSize)
	prm.V = prm.S * prm.L * float64(relPages) / N
	prm.M = math.Max(float64(o.buffer), 12)
	p := float64(treeResults) / N
	if o.mode == "join" {
		p /= N
	}
	p = math.Min(math.Max(p, 1e-12), 1)
	model, err := costmodel.NewModel(prm, costmodel.Uniform, p)
	if err != nil {
		fmt.Fprintf(out, "cost model unavailable for this workload: %v\n", err)
		return nil
	}

	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', tabwriter.AlignRight)
	measured := func(sp obs.Span, qualKey string) (lv, qual, fe, ee, rd int64) {
		lv, _ = sp.IntAttr("level")
		qual, _ = sp.IntAttr(qualKey)
		fe, _ = sp.IntAttr("filter_evals")
		ee, _ = sp.IntAttr("exact_evals")
		rd, _ = sp.IntAttr("reads")
		return
	}
	if o.mode == "select" {
		terms := model.SelectLevelTerms(prm.H)
		fmt.Fprintf(w, "level\tqualnodes\tfilter\texact\treads\tmodel nodes\tmodel IOa\tmodel IOb\t\n")
		for i, sp := range levels {
			lv, qual, fe, ee, rd := measured(sp, "qualnodes")
			nodes, ioa, iob := "-", "-", "-"
			if i < len(terms) {
				nodes = fmt.Sprintf("%.1f", terms[i].Nodes)
				ioa = fmt.Sprintf("%.1f", terms[i].IOa)
				iob = fmt.Sprintf("%.1f", terms[i].IOb)
			}
			fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%d\t%s\t%s\t%s\t\n", lv, qual, fe, ee, rd, nodes, ioa, iob)
		}
	} else {
		terms, passes := model.JoinLevelTerms()
		fmt.Fprintf(w, "level\tqualpairs\tfilter\texact\treads\tmodel IOa\tmodel IOb\t\n")
		for i, sp := range levels {
			lv, qual, fe, ee, rd := measured(sp, "qualpairs")
			ioa, iob := "-", "-"
			if i < len(terms) {
				ioa = fmt.Sprintf("%.1f", passes*terms[i].ScanA+terms[i].LoadA)
				iob = fmt.Sprintf("%.1f", passes*terms[i].ScanB+terms[i].LoadB)
			}
			fmt.Fprintf(w, "%d\t%d\t%d\t%d\t%d\t%s\t%s\t\n", lv, qual, fe, ee, rd, ioa, iob)
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}

	var sum int64
	for _, sp := range levels {
		rd, _ := sp.IntAttr("reads")
		sum += rd
	}
	execName := "treejoin"
	if o.mode == "select" {
		execName = "treeselect"
	}
	var total int64
	if ex := trace.SpansNamed(execName); len(ex) == 1 {
		total, _ = ex[0].IntAttr("page_reads")
	}
	relop := "=="
	if sum != total {
		relop = "!="
	}
	fmt.Fprintf(out, "trace: level reads sum %d %s tree strategy page reads %d\n", sum, relop, total)
	return nil
}

// registerPoolMetrics exposes the counters of a raw benchmark pool (no
// Database in front) as scrape-time samplers. Note cold-start resets
// between strategies make these counters non-monotone within one run.
func registerPoolMetrics(reg *obs.Registry, pool *storage.BufferPool) {
	count := func(name, help string, fn func() int64) {
		reg.CounterFunc(name, help, func() float64 { return float64(fn()) })
	}
	count("spatialjoin_pool_logical_reads_total", "Page fetches served by the buffer pool.",
		//sjlint:ignore statsreset scrape-time sampler, not a measurement snapshot
		func() int64 { return pool.Stats().LogicalReads })
	count("spatialjoin_pool_misses_total", "Pool fetches that went to the disk (physical reads).",
		//sjlint:ignore statsreset scrape-time sampler, not a measurement snapshot
		func() int64 { return pool.Stats().Misses })
	count("spatialjoin_pool_evictions_total", "Frames evicted by the pool's LRU policy.",
		//sjlint:ignore statsreset scrape-time sampler, not a measurement snapshot
		func() int64 { return pool.Stats().Evictions })
	count("spatialjoin_disk_reads_total", "Physical page reads at the device.",
		//sjlint:ignore statsreset scrape-time sampler, not a measurement snapshot
		func() int64 { return pool.Disk().Stats().Reads })
	count("spatialjoin_disk_writes_total", "Physical page writes at the device.",
		//sjlint:ignore statsreset scrape-time sampler, not a measurement snapshot
		func() int64 { return pool.Disk().Stats().Writes })
}

// serveMetrics starts the observability endpoint (/metrics, /debug/vars,
// pprof) on addr — port 0 picks a free port — printing the bound address.
// The returned function stops the server.
func serveMetrics(out io.Writer, addr string, reg *obs.Registry) (func(), error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "metrics: serving http://%s/metrics\n", ln.Addr())
	srv := &http.Server{Handler: obs.NewMux(reg)}
	go func() {
		if serr := srv.Serve(ln); serr != nil && serr != http.ErrServerClosed {
			fmt.Fprintln(os.Stderr, "sjoin: metrics server:", serr)
		}
	}()
	return func() {
		if cerr := srv.Close(); cerr != nil {
			fmt.Fprintln(os.Stderr, "sjoin: closing metrics server:", cerr)
		}
	}, nil
}

// finish renders the table, forces pending write-backs to disk — a failed
// flush is a fatal, reportable loss, not a droppable error — and prints the
// physical I/O ledger for the last (post-reset) strategy run, including the
// retry and fault counters when a fault schedule was injected.
func finish(out io.Writer, w *tabwriter.Writer, pool *storage.BufferPool) error {
	if err := w.Flush(); err != nil {
		return err
	}
	if err := pool.Flush(); err != nil {
		return fmt.Errorf("flushing buffer pool: %w", err)
	}
	ps, ds := pool.Stats(), pool.Disk().Stats()
	fmt.Fprintf(out, "io: %d logical reads, %d misses, %d evictions; retries %d read / %d write\n",
		ps.LogicalReads, ps.Misses, ps.Evictions, ps.ReadRetries, ps.WriteRetries)
	if ds.ReadFaults > 0 || ds.WriteFaults > 0 {
		fmt.Fprintf(out, "device: %d reads (+%d faulted attempts), %d writes (+%d faulted attempts)\n",
			ds.Reads, ds.ReadFaults, ds.Writes, ds.WriteFaults)
	}
	return nil
}
