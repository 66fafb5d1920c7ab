package main

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"
)

// options are one run's settings.
type options struct {
	seed   int64
	window time.Duration // measured load window (each, when traced)
	trace  bool
	setups int // how many times the serving stack is built
}

// report collects one run's figures.
type report struct {
	attempted, failed int
	e2e               map[string]float64
	layer             map[string]float64
	notes             []string
	tracer            *tracer
	setups            []float64 // seconds per build of a serving stack
}

// newReport starts a report whose per-layer figures all read 0 until the
// workload that exercises them sets them.
func newReport(o options) *report {
	r := &report{e2e: make(map[string]float64), layer: make(map[string]float64)}
	for _, n := range metricNames(true) {
		r.layer[n] = 0
	}
	return r
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// count adds a window's operations to attempted and failed.
func (r *report) count(samples []sample) {
	for _, s := range samples {
		r.attempted++
		if !s.ok {
			r.failed++
		}
	}
	if r.attempted > 0 {
		r.layer["load.error_rate"] = float64(r.failed) / float64(r.attempted)
	}
}

// ops sets the figures of a workload's operation from its samples: the
// operations answered per second of load time, and the median and tail
// latency. The latencies are taken block by block: the served operations,
// in the order they were answered, are cut into consecutive blocks just
// large enough for the tail percentile to have minBeyond samples beyond
// it (a remainder joins the last block), and each figure is the mean over
// the blocks of the block's percentile. On a steady machine that is the
// window's percentile. On a shared host whose speed drifts during the
// window it moves in proportion to the time spent slow, where a
// percentile of the pooled samples jumps from one speed's mode to the
// other's.
func (r *report) ops(what string, samples []sample, elapsed time.Duration, tail float64) error {
	var served []sample
	for _, s := range samples {
		if s.ok {
			served = append(served, s)
		}
	}
	size := blockSize(tail)
	if len(served) < size {
		return fmt.Errorf("%d %s are too few for one block of %d, the fewest with %d samples beyond p%g",
			len(served), what, size, minBeyond, tail)
	}
	sort.Slice(served, func(i, j int) bool { return served[i].answered.Before(served[j].answered) })
	blocks := len(served) / size
	var p50, pTail float64
	for b := 0; b < blocks; b++ {
		end := (b + 1) * size
		if b == blocks-1 {
			end = len(served)
		}
		var lat []time.Duration
		for _, s := range served[b*size : end] {
			lat = append(lat, s.latency())
		}
		p50 += ms(percentile(lat, 50))
		pTail += ms(percentile(lat, tail))
	}
	r.e2e["ops_per_s"] = float64(len(served)) / elapsed.Seconds()
	r.e2e["op_p50_ms"] = p50 / float64(blocks)
	r.e2e["op_tail_ms"] = pTail / float64(blocks)
	r.note("%s: %d, %d failed, in %.3f s; over %d blocks of >= %d: p50 %.3f ms, p%g %.3f ms",
		what, len(served), len(samples)-len(served), elapsed.Seconds(), blocks, size, r.e2e["op_p50_ms"], tail, r.e2e["op_tail_ms"])
	return nil
}

// blockSize is the fewest samples with minBeyond of them beyond
// percentile p.
func blockSize(p float64) int {
	n := 1
	for n-1-rankIndex(p, n) < minBeyond {
		n++
	}
	return n
}

// elapsed is the time from the first due time of the samples to the last
// answer.
func elapsed(samples []sample) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	first, last := samples[0].due, samples[0].answered
	for _, s := range samples {
		if s.due.Before(first) {
			first = s.due
		}
		if s.answered.After(last) {
			last = s.answered
		}
	}
	return last.Sub(first)
}

// build builds a serving stack and charges the time to setup_s, which is
// the median over every build of the run. It returns the stack's
// teardown.
func (r *report) build(build func() (func() error, error)) (func() error, error) {
	runtime.GC() // the previous build's garbage is not this build's cost
	t0 := time.Now()
	teardown, err := build()
	if err != nil {
		return nil, err
	}
	r.setups = append(r.setups, time.Since(t0).Seconds())
	r.e2e["setup_s"] = median(r.setups)
	return teardown, nil
}

// setUp builds the serving stack o.setups times, tearing down all but the
// last build, and records the live heap after the last build as heap_mb.
// It returns the last build's teardown.
func setUp(o options, r *report, build func() (func() error, error)) (func() error, error) {
	var teardown func() error
	for i := 0; i < o.setups; i++ {
		if teardown != nil {
			if err := teardown(); err != nil {
				return nil, err
			}
		}
		var err error
		if teardown, err = r.build(build); err != nil {
			return nil, err
		}
	}
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	r.e2e["heap_mb"] = float64(m.HeapAlloc) / 1e6
	r.note("set-up: %d builds, %v s each", o.setups, r.setups)
	return teardown, nil
}

// metricsOf returns the figures a run prints: the end-to-end ones when
// untraced, the per-layer ones when traced.
func (r *report) metricsOf(traced bool) map[string]float64 {
	if traced {
		return r.layer
	}
	return r.e2e
}

// result is the JSON object a run prints as its last line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// write prints the run's notes and figures for people, then the result
// line.
func (r *report) write(w io.Writer, traced, correct bool) error {
	for _, n := range r.notes {
		fmt.Fprintln(w, "#", n)
	}
	res := result{Correct: correct, Attempted: r.attempted, Failed: r.failed, Metrics: make(map[string]metricValue)}
	for _, name := range metricNames(traced) {
		v, ok := r.metricsOf(traced)[name]
		if !ok {
			if correct {
				return fmt.Errorf("metric %s was not measured", name)
			}
			continue
		}
		res.Metrics[name] = metricValue{Value: v, Unit: unitOf(name)}
		fmt.Fprintf(w, "# %-36s %14.6g %s\n", name, v, unitOf(name))
	}
	if traced && r.tracer != nil {
		if err := r.tracer.writeSummary(w); err != nil {
			return err
		}
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
