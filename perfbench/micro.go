package main

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"time"

	"spatialjoin"
	"spatialjoin/internal/core"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/pred"
	"spatialjoin/internal/rtree"
	"spatialjoin/internal/storage"
	"spatialjoin/internal/wire"
)

// The functions here price one layer each by timing calls into its public
// functions, outside the serving stack. Each repeats its batch and keeps
// the median batch time.

// batches is how many timed batches each layer measurement takes.
const batches = 7

// timeBatches runs f batches times and returns the median duration.
func timeBatches(f func() error) (time.Duration, error) {
	ds := make([]time.Duration, 0, batches)
	for i := 0; i < batches; i++ {
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		ds = append(ds, time.Since(t0))
	}
	return medianDur(ds), nil
}

// sink keeps measured results alive so the compiler cannot drop the calls.
var sink int

// codecMatchesNs prices EncodeMatches+DecodeMatches per match.
func codecMatchesNs(ms []core.Match) (float64, error) {
	if len(ms) == 0 {
		return 0, nil
	}
	const reps = 200
	dst := make([]core.Match, 0, len(ms))
	d, err := timeBatches(func() error {
		for i := 0; i < reps; i++ {
			out, err := wire.DecodeMatches(dst[:0], wire.EncodeMatches(ms))
			if err != nil {
				return err
			}
			sink += len(out)
		}
		return nil
	})
	return float64(d) / float64(reps*len(ms)), err
}

// codecIDsNs prices EncodeIDs+DecodeIDs per id.
func codecIDsNs(ids []int) (float64, error) {
	if len(ids) == 0 {
		return 0, nil
	}
	const reps = 200
	dst := make([]int, 0, len(ids))
	d, err := timeBatches(func() error {
		for i := 0; i < reps; i++ {
			out, err := wire.DecodeIDs(dst[:0], wire.EncodeIDs(ids))
			if err != nil {
				return err
			}
			sink += len(out)
		}
		return nil
	})
	return float64(d) / float64(reps*len(ids)), err
}

// predNs prices the overlaps filter Θ and exact θ per candidate pair,
// called through the Operator interface as the engine calls them.
func predNs(as, bs []geom.Spatial) (filterNs, evalNs float64, err error) {
	op := pred.Operator(pred.Overlaps{})
	const reps = 50
	n := float64(reps * len(as))
	boxA := make([]geom.Rect, len(as))
	boxB := make([]geom.Rect, len(bs))
	for i := range as {
		boxA[i], boxB[i] = as[i].Bounds(), bs[i].Bounds()
	}
	df, err := timeBatches(func() error {
		for r := 0; r < reps; r++ {
			for i := range boxA {
				if op.Filter(boxA[i], boxB[i]) {
					sink++
				}
			}
		}
		return nil
	})
	if err != nil {
		return 0, 0, err
	}
	de, err := timeBatches(func() error {
		for r := 0; r < reps; r++ {
			for i := range as {
				if op.Eval(as[i], bs[i]) {
					sink++
				}
			}
		}
		return nil
	})
	return float64(df) / n, float64(de) / n, err
}

// candidatePairs samples n pairs: half that match (drawn from the
// reference answers), half drawn at random, so both outcomes of the
// predicates are priced.
func candidatePairs(rng *rand.Rand, n int, matches [][2]geom.Rect, left, right []geom.Rect) (as, bs []geom.Spatial) {
	for i := 0; i < n; i++ {
		var a, b geom.Rect
		if i%2 == 0 && len(matches) > 0 {
			m := matches[rng.Intn(len(matches))]
			a, b = m[0], m[1]
		} else {
			a, b = left[rng.Intn(len(left))], right[rng.Intn(len(right))]
		}
		as, bs = append(as, a), append(bs, b)
	}
	return as, bs
}

// fetchNs prices BufferPool.Fetch on a pool built over a heap file of the
// given geometry: hits cycle over a resident set, misses cycle
// sequentially over more pages than a small pool holds.
func fetchNs(rects []geom.Rect, pageSize int, fill float64) (hitNs, missNs float64, err error) {
	disk := storage.NewDisk(pageSize)
	build, err := storage.NewBufferPool(disk, 64)
	if err != nil {
		return 0, 0, err
	}
	hf, err := storage.NewHeapFile(build, fill)
	if err != nil {
		return 0, 0, err
	}
	var rec [rectBytes]byte
	for _, r := range rects {
		binary.LittleEndian.PutUint64(rec[0:], math.Float64bits(r.MinX))
		binary.LittleEndian.PutUint64(rec[8:], math.Float64bits(r.MinY))
		binary.LittleEndian.PutUint64(rec[16:], math.Float64bits(r.MaxX))
		binary.LittleEndian.PutUint64(rec[24:], math.Float64bits(r.MaxY))
		if _, err := hf.Append(rec[:]); err != nil {
			return 0, 0, err
		}
	}
	if err := build.Flush(); err != nil {
		return 0, 0, err
	}
	pages := hf.NumPages()
	if pages < 8 {
		return 0, 0, fmt.Errorf("fetch: only %d pages of geometry", pages)
	}
	ids := make([]storage.PageID, pages)
	for i := range ids {
		ids[i] = storage.PageID{File: hf.File(), Page: int32(i)}
	}
	const fetches = 20000
	run := func(pool *storage.BufferPool, ids []storage.PageID) (float64, storage.PoolStats, error) {
		for _, id := range ids { // warm: what fits is resident before timing
			if _, err := pool.Fetch(id); err != nil {
				return 0, storage.PoolStats{}, err
			}
		}
		pool.ResetStats()
		next := 0 // the cycle continues across batches
		d, err := timeBatches(func() error {
			for i := 0; i < fetches; i++ {
				if _, err := pool.Fetch(ids[next]); err != nil {
					return err
				}
				if next++; next == len(ids) {
					next = 0
				}
			}
			return nil
		})
		return float64(d) / fetches, pool.Stats(), err
	}
	hot, err := storage.NewBufferPool(disk, pages)
	if err != nil {
		return 0, 0, err
	}
	hitNs, st, err := run(hot, ids)
	if err != nil {
		return 0, 0, err
	}
	if st.Misses != 0 {
		return 0, 0, fmt.Errorf("fetch: %d misses on a pool holding every page", st.Misses)
	}
	cold, err := storage.NewBufferPool(disk, pages/4)
	if err != nil {
		return 0, 0, err
	}
	missNs, st, err = run(cold, ids)
	if err != nil {
		return 0, 0, err
	}
	if st.Misses != st.LogicalReads {
		return 0, 0, fmt.Errorf("fetch: %d of %d sequential fetches hit a quarter-size pool", st.LogicalReads-st.Misses, st.LogicalReads)
	}
	return hitNs, missNs, nil
}

// rtreeOf builds an R-tree of rects by one-at-a-time insertion, as a
// collection's index is built.
func rtreeOf(rects []geom.Rect) (*rtree.Tree, error) {
	t, err := rtree.New(rtree.DefaultOptions())
	if err != nil {
		return nil, err
	}
	for id, r := range rects {
		t.Insert(r, id)
	}
	return t, nil
}

// inmemJoinMs prices algorithm JOIN over benchmark-built R-tree
// generalizations of the inputs, with no storage underneath.
func inmemJoinMs(rs, ss []geom.Rect, workers, want int) (float64, error) {
	tr, err := rtreeOf(rs)
	if err != nil {
		return 0, err
	}
	ts, err := rtreeOf(ss)
	if err != nil {
		return 0, err
	}
	d, err := timeBatches(func() error {
		res, err := core.Join(tr.Generalization(), ts.Generalization(), pred.Overlaps{}, &core.JoinOptions{Workers: workers})
		if err != nil {
			return err
		}
		if len(res.Pairs) != want {
			return wrong("in-memory join found %d pairs, want %d", len(res.Pairs), want)
		}
		return nil
	})
	return ms(d), err
}

// sweepMs prices the flat plane-sweep join, sorting included.
func sweepMs(rs, ss []geom.Rect, want int) (float64, error) {
	var w sweeper
	d, err := timeBatches(func() error {
		n := 0
		w.join(rs, ss, func(int, int) { n++ })
		if n != want {
			return wrong("plane sweep found %d pairs, want %d", n, want)
		}
		return nil
	})
	return ms(d), err
}

// speedupW2 times the in-process tree join at Workers 1 and 2 on databases
// loaded with the dataset and returns time(1)/time(2).
func speedupW2(d dataset, want int) (float64, error) {
	var t [2]time.Duration
	for i, workers := range []int{1, 2} {
		cfg := spatialjoin.DefaultConfig()
		cfg.Workers = workers
		db, r, s, err := loadDB(cfg, d)
		if err != nil {
			return 0, err
		}
		t[i], err = timeBatches(func() error {
			ms, _, err := db.JoinContext(context.Background(), r, s, spatialjoin.Overlaps(), spatialjoin.TreeStrategy)
			if err == nil && len(ms) != want {
				err = wrong("Workers=%d join found %d pairs, want %d", workers, len(ms), want)
			}
			return err
		})
		if cerr := db.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return 0, err
		}
	}
	return float64(t[0]) / float64(t[1]), nil
}

// rtreeInsertUs prices rtree.Tree.Insert of a stream into a tree already
// holding base, per insert.
func rtreeInsertUs(base, stream []geom.Rect) (float64, error) {
	if len(stream) == 0 {
		return 0, nil
	}
	var ds []time.Duration
	for i := 0; i < batches; i++ {
		t, err := rtreeOf(base)
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		for k, r := range stream {
			t.Insert(r, len(base)+k)
		}
		ds = append(ds, time.Since(t0))
	}
	return us(medianDur(ds)) / float64(len(stream)), nil
}

// joinPrices sets the layer prices of the join workload: the match codec,
// the plane-sweep floor and the tree join's multiple of it, the in-memory
// join, the Workers=2 speedup, the predicates and buffer-pool fetches.
func joinPrices(L map[string]float64, seed int64, d dataset, want []core.Match) error {
	var err error
	if L["wire.codec_ns_per_result"], err = codecMatchesNs(want); err != nil {
		return err
	}
	if L["floor.sweep_ms"], err = sweepMs(d.r, d.s, len(want)); err != nil {
		return err
	}
	L["floor.multiple"] = L["spatialjoin.query_ms"] / L["floor.sweep_ms"]
	if L["core.inmem_join_ms"], err = inmemJoinMs(d.r, d.s, spatialjoin.DefaultConfig().Workers, len(want)); err != nil {
		return err
	}
	if L["parallel.speedup_w2"], err = speedupW2(d, len(want)); err != nil {
		return err
	}
	var matched [][2]geom.Rect
	for _, m := range want {
		matched = append(matched, [2]geom.Rect{d.r[m.R], d.s[m.S]})
	}
	return predAndFetch(L, seed, matched, d.r, d.s, append(append([]geom.Rect(nil), d.r...), d.s...))
}

// selectPrices sets the layer prices of a select workload on collection s:
// the ID codec on the answers of the first 64 probes, the predicates on
// pairs sampled from the answers of the first 256 probes and at random,
// and buffer-pool fetches over a heap file of geometry.
func selectPrices(L map[string]float64, seed int64, probes, s, geometry []geom.Rect) error {
	var ids []int
	var matched [][2]geom.Rect
	for i, p := range probes[:256] {
		want := bruteSelect(s, p)
		for _, id := range want {
			matched = append(matched, [2]geom.Rect{p, s[id]})
		}
		if i < 64 {
			ids = append(ids, want...)
		}
	}
	var err error
	if L["wire.codec_ns_per_result"], err = codecIDsNs(ids); err != nil {
		return err
	}
	return predAndFetch(L, seed, matched, probes, s, geometry)
}

// predAndFetch prices the overlaps predicates on 4096 candidate pairs and
// BufferPool.Fetch over a heap file of geometry.
func predAndFetch(L map[string]float64, seed int64, matched [][2]geom.Rect, left, right, geometry []geom.Rect) error {
	as, bs := candidatePairs(rand.New(rand.NewSource(seed+2)), 4096, matched, left, right)
	var err error
	if L["pred.filter_ns"], L["pred.eval_ns"], err = predNs(as, bs); err != nil {
		return err
	}
	cfg := spatialjoin.DefaultConfig()
	L["storage.fetch_hit_ns"], L["storage.fetch_miss_ns"], err = fetchNs(geometry, cfg.PageSize, cfg.FillFactor)
	return err
}

// probeTally sums the engine's own counters over reads issued one at a
// time, so the pool's IOStats over the same reads are theirs alone.
type probeTally struct {
	q       wire.QueryStats
	results int
	n       int
}

func (p *probeTally) add(res *wire.Result) {
	p.q.FilterEvals += res.Stats.FilterEvals
	p.q.ExactEvals += res.Stats.ExactEvals
	p.q.IndexReads += res.Stats.IndexReads
	p.results += len(res.Matches) + len(res.IDs)
	p.n++
}

// set writes the per-query counter figures, given the pool's IOStats over
// the tallied reads.
func (p *probeTally) set(L map[string]float64, io storage.PoolStats) {
	n := float64(p.n)
	L["storage.logical_reads_per_query"] = float64(io.LogicalReads) / n
	L["storage.misses_per_query"] = float64(io.Misses) / n
	L["storage.evictions_per_query"] = float64(io.Evictions) / n
	L["storage.hit_ratio"] = io.HitRatio()
	L["core.filter_evals_per_query"] = float64(p.q.FilterEvals) / n
	L["core.exact_evals_per_query"] = float64(p.q.ExactEvals) / n
	L["spatialjoin.index_reads_per_query"] = float64(p.q.IndexReads) / n
	if p.q.ExactEvals > 0 {
		L["core.result_ratio"] = float64(p.results) / float64(p.q.ExactEvals)
	}
}
