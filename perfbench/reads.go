package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"spatialjoin"
	"spatialjoin/internal/core"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/obs"
	"spatialjoin/internal/server"
	"spatialjoin/internal/wire"
)

// readSpec shapes a closed-loop read workload over sjoind's dataset.
type readSpec struct {
	rects   int     // rectangles per collection
	join    bool    // tree joins r ⋈ s; otherwise window selects on s
	tail    float64 // the percentile op_tail_ms reports
	warmups int     // untimed reads per client before the window
	serial  int     // reads in the one-in-flight counter probe
	// datasets is how many independently drawn datasets the window is
	// split over.
	datasets int
}

// clients is the closed-loop connection count of the read workloads.
const clients = 2

// probeFrac is a select window's side as a fraction of the world side.
const probeFrac = 0.05

// readStack is the serving stack of a read workload, wired like sjoind:
// the database behind server.New on a loopback port, reached by
// wire.Client connections.
type readStack struct {
	db      *spatialjoin.Database
	reg     *obs.Registry
	srv     *served
	clients []*wire.Client
}

func buildReadStack(d dataset) (*readStack, error) {
	reg := obs.NewRegistry()
	cfg := spatialjoin.DefaultConfig()
	cfg.Metrics = reg
	db, _, _, err := loadDB(cfg, d)
	if err != nil {
		return nil, err
	}
	srv, err := serve(db, server.Options{Metrics: reg})
	if err != nil {
		db.Close()
		return nil, err
	}
	cl, err := dialAll(srv.addr, clients)
	if err != nil {
		srv.stop()
		db.Close()
		return nil, err
	}
	return &readStack{db: db, reg: reg, srv: srv, clients: cl}, nil
}

func (st *readStack) close() error {
	closeAll(st.clients)
	err := st.srv.stop()
	if cerr := st.db.Close(); err == nil {
		err = cerr
	}
	return err
}

// readRun is one read workload's run state.
type readRun struct {
	spec   readSpec
	d      dataset
	want   []core.Match // join reference
	probes []geom.Rect  // select probes
	wants  [][]int      // select references, by probe
	st     *readStack
}

// read issues one wire read on client w and checks its answer. It returns
// the answer's arrival time, whether it was served, and the results.
func (rr *readRun) read(ctx context.Context, t *tracer, w, seq int) (time.Time, bool, *wire.Result, error) {
	cli := rr.st.clients[w%len(rr.st.clients)]
	var res *wire.Result
	var answered time.Time
	probe := 0
	name := "bench.select"
	if rr.spec.join {
		name = "bench.join"
	} else {
		probe = (seq*len(rr.st.clients) + w) % len(rr.probes)
	}
	err := t.traceOp(ctx, name, func(ctx context.Context) error {
		var err error
		if rr.spec.join {
			res, err = cli.Join(ctx, "r", "s", wire.Overlaps(), wire.StrategyTree)
		} else {
			res, err = cli.Select(ctx, "s", rr.probes[probe], wire.Overlaps(), wire.StrategyTree)
		}
		answered = time.Now()
		return err
	})
	if err != nil {
		return answered, false, nil, err
	}
	if res.Err() != nil {
		return answered, false, res, nil
	}
	if rr.spec.join {
		if err := sameMatches(res.Matches, rr.want); err != nil {
			return answered, false, res, wrong("join: %v", err)
		}
	} else if err := sameIDs(res.IDs, rr.wants[probe]); err != nil {
		return answered, false, res, wrong("select probe %d: %v", probe, err)
	}
	return answered, true, res, nil
}

func (rr *readRun) op(t *tracer) operation {
	return func(ctx context.Context, w, seq int) (time.Time, bool, error) {
		answered, ok, _, err := rr.read(ctx, t, w, seq)
		return answered, ok, err
	}
}

// datasetSeed is the seed of dataset i of a run on seed: dataset 0 is
// sjoind's for the seed itself, the others are drawn far from every other
// run's seeds.
func datasetSeed(seed int64, i int) int64 { return seed + int64(i)*1_000_003 }

// newReadRun draws a dataset and computes its reference answers.
func newReadRun(spec readSpec, seed int64) *readRun {
	rr := &readRun{spec: spec, d: genDataset(seed, spec.rects)}
	if spec.join {
		rr.want = sweepJoin(rr.d.r, rr.d.s)
	} else {
		rr.probes = probes(rand.New(rand.NewSource(seed+1)), 4096, rr.d.world, probeFrac)
		for _, p := range rr.probes {
			rr.wants = append(rr.wants, bruteSelect(rr.d.s, p))
		}
	}
	return rr
}

// build builds the run's serving stack; it is setUp's build step.
func (rr *readRun) build() (func() error, error) {
	st, err := buildReadStack(rr.d)
	if err != nil {
		return nil, err
	}
	rr.st = st
	return st.close, nil
}

// warmUp issues the spec's untimed reads on every client.
func (rr *readRun) warmUp() error {
	for w := range rr.st.clients {
		for i := 0; i < rr.spec.warmups; i++ {
			if _, _, _, err := rr.read(context.Background(), nil, w, i); err != nil {
				return err
			}
		}
	}
	return nil
}

// runRead runs a closed-loop read workload. The window is split equally
// over spec.datasets independently drawn datasets, each on its own stack,
// so that a run's figures average over inputs instead of riding on one
// draw of sjoind's 16 clusters. Dataset 0 runs last, and its stack stays
// up for the traced run.
func runRead(spec readSpec, o options) (*report, error) {
	rep := newReport(o)
	var (
		rr       *readRun
		teardown func() error
		samples  []sample
		loadTime time.Duration
		last     []sample // dataset 0's window
		matches  []int
	)
	defer func() {
		if teardown != nil {
			teardown()
		}
	}()
	for i := spec.datasets - 1; i >= 0; i-- {
		if teardown != nil {
			err := teardown()
			teardown = nil
			if err != nil {
				return rep, err
			}
		}
		// Reference answers, before anything is timed.
		rr = newReadRun(spec, datasetSeed(o.seed, i))
		var err error
		if i == spec.datasets-1 {
			teardown, err = setUp(o, rep, rr.build)
		} else {
			teardown, err = rep.build(rr.build)
		}
		if err != nil {
			return rep, err
		}
		if err := rr.warmUp(); err != nil {
			return rep, err
		}
		last, err = closedLoop(clients, o.window/time.Duration(spec.datasets), rr.op(nil))
		rep.count(last)
		if err != nil {
			return rep, err
		}
		samples = append(samples, last...)
		loadTime += elapsed(last)
		lat, _, _ := tally(last)
		rep.note("dataset %d (seed %d): %d answered, p50 %.3f ms", i, datasetSeed(o.seed, i), len(lat), ms(medianDur(lat)))
		matches = append(matches, len(rr.want))
	}
	what := "selects answered"
	if spec.join {
		what = "joins answered"
	}
	if err := rep.ops(fmt.Sprintf("%s over %d datasets", what, spec.datasets), samples, loadTime, spec.tail); err != nil {
		return rep, err
	}
	if spec.join {
		rep.note("matches per join: %d on dataset 0 (plane-sweep reference); on datasets %d..1: %v",
			len(rr.want), spec.datasets-1, matches[:len(matches)-1])
	}
	dev, err := deviceBytes(rr.st.db)
	if err != nil {
		return rep, err
	}
	rep.e2e["bytes_per_user_byte"] = dev / float64(rectBytes*(len(rr.d.r)+len(rr.d.s)))

	if !o.trace {
		return rep, nil
	}
	lat, _, _ := tally(last)
	return rep, rr.layers(o, rep, medianDur(lat))
}

// layers runs the traced window, the one-in-flight counter probe, and the
// layer measurements of a read workload.
func (rr *readRun) layers(o options, rep *report, untracedP50 time.Duration) error {
	before, err := scrape(rr.st.reg)
	if err != nil {
		return err
	}
	t := &tracer{}
	samples, err := closedLoop(clients, o.window, rr.op(t))
	rep.count(samples)
	if err != nil {
		return err
	}
	rep.tracer = t
	lat, _, _ := tally(samples)
	after, err := scrape(rr.st.reg)
	if err != nil {
		return err
	}
	L := rep.layer
	L["trace.overhead_pct"] = 100 * (float64(medianDur(lat))/float64(untracedP50) - 1)
	if rr.spec.join {
		spanFigures(L, t, "bench.join", "wire.join", "join")
	} else {
		spanFigures(L, t, "bench.select", "wire.select", "select")
	}
	if q := family(after, "spatialjoin_server_queries_total") - family(before, "spatialjoin_server_queries_total"); q > 0 {
		L["server.shed_ratio"] = (family(after, "spatialjoin_server_queries_shed_total") -
			family(before, "spatialjoin_server_queries_shed_total")) / q
	}

	if err := rr.serialProbe(L); err != nil {
		return err
	}

	// Layer prices outside the serving stack.
	if rr.spec.join {
		return joinPrices(L, o.seed, rr.d, rr.want)
	}
	return selectPrices(L, o.seed, rr.probes, rr.d.s, append(append([]geom.Rect(nil), rr.d.r...), rr.d.s...))
}

// serialProbe issues reads one at a time and prices them in the engine's
// own counters: buffer-pool I/O from IOStats, filter/exact evaluations and
// index reads from the Done frame's stats.
func (rr *readRun) serialProbe(L map[string]float64) error {
	db := rr.st.db
	db.ResetIOStats()
	var p probeTally
	for i := 0; i < rr.spec.serial; i++ {
		_, ok, res, err := rr.read(context.Background(), nil, 0, i)
		if err != nil {
			return err
		}
		if !ok {
			return fmt.Errorf("serial probe read %d refused: %v", i, res.Err())
		}
		p.add(res)
	}
	p.set(L, db.IOStats())
	return nil
}
