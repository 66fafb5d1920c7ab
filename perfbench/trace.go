package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"sync"
	"text/tabwriter"
	"time"

	"spatialjoin/internal/obs"
)

// spanRec is one finished span of a traced operation. Every span of an
// operation carries the operation's ID: the trace ID the wire client
// propagates to the server, so the benchmark's own spans and the server's
// returned spans of one request share it.
type spanRec struct {
	Op     uint64 `json:"op"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	Dur    int64  `json:"dur_ns"`
	Self   int64  `json:"self_ns"`
}

// tracer keeps the spans of every traced operation in memory until the
// run ends. A nil tracer traces nothing.
type tracer struct {
	mu    sync.Mutex
	spans []spanRec
	ops   map[string]int // traced operations by root span name
}

// traceOp runs call inside a benchmark span named name, on a context
// carrying a fresh trace that the wire client propagates to the server;
// the server's spans come back grafted under the client's call span. With
// a nil tracer call runs untraced.
func (t *tracer) traceOp(ctx context.Context, name string, call func(ctx context.Context) error) error {
	if t == nil {
		return call(ctx)
	}
	ctx, tr := obs.WithTrace(ctx)
	root := tr.Begin(0, name)
	err := call(obs.ContextWithSpan(ctx, root))
	tr.End(root)
	t.add(tr)
	return err
}

// add records a finished trace's spans with their self times.
func (t *tracer) add(tr *obs.Trace) {
	spans := tr.Spans()
	recs := make([]spanRec, 0, len(spans))
	for _, s := range spans {
		recs = append(recs, spanRec{
			Op: tr.ID(), ID: int32(s.ID), Parent: int32(s.Parent), Name: s.Name,
			Start: int64(s.Start), Dur: int64(s.Dur()),
		})
	}
	setSelfTimes(recs)
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.ops == nil {
		t.ops = make(map[string]int)
	}
	if len(recs) > 0 {
		t.ops[recs[0].Name]++
	}
	t.spans = append(t.spans, recs...)
}

// setSelfTimes sets each span's self time: its duration minus the part of
// its interval that its children cover (overlapping children counted once).
func setSelfTimes(recs []spanRec) {
	children := make(map[int32][][2]int64)
	for _, r := range recs {
		if r.Parent != 0 {
			children[r.Parent] = append(children[r.Parent], [2]int64{r.Start, r.Start + r.Dur})
		}
	}
	for i := range recs {
		lo, hi := recs[i].Start, recs[i].Start+recs[i].Dur
		iv := children[recs[i].ID]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		covered, end := int64(0), lo
		for _, c := range iv {
			s, e := max(c[0], end), min(c[1], hi)
			if e > s {
				covered += e - s
				end = e
			}
		}
		recs[i].Self = recs[i].Dur - covered
	}
}

// perOp returns, averaged over the traced operations whose root span is
// op, the summed duration (or self time) of the spans with the given names
// in one operation. Call it once tracing has stopped.
func (t *tracer) perOp(op string, self bool, names ...string) time.Duration {
	if t == nil || t.ops[op] == 0 {
		return 0
	}
	var sum int64
	for _, r := range t.spans {
		for _, n := range names {
			if r.Name == n {
				if self {
					sum += r.Self
				} else {
					sum += r.Dur
				}
			}
		}
	}
	return time.Duration(sum / int64(t.ops[op]))
}

// writeSummary prints, per span name, how often it ran and its total and
// mean self time.
func (t *tracer) writeSummary(w io.Writer) error {
	type agg struct {
		n    int
		self int64
	}
	by := make(map[string]*agg)
	var names []string
	for _, r := range t.spans {
		a, ok := by[r.Name]
		if !ok {
			a = &agg{}
			by[r.Name] = a
			names = append(names, r.Name)
		}
		a.n++
		a.self += r.Self
	}
	sort.Strings(names)
	tw := tabwriter.NewWriter(w, 2, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "span\tcount\tself_ms_total\tself_us_mean")
	for _, n := range names {
		a := by[n]
		fmt.Fprintf(tw, "%s\t%d\t%.3f\t%.1f\n", n, a.n, float64(a.self)/1e6, float64(a.self)/1e3/float64(a.n))
	}
	return tw.Flush()
}

// writeJSON writes every span, one JSON object a line.
func (t *tracer) writeJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, r := range t.spans {
		if err := enc.Encode(r); err != nil {
			return err
		}
	}
	return nil
}

// spanFigures sets the per-layer figures read off the traced reads, whose
// benchmark span is op, wire client span client, and engine span engine:
// the server's admission, stream and engine spans, the scrub and per-level
// self time inside the engine, and the wire's share of the call.
func spanFigures(L map[string]float64, t *tracer, op, client, engine string) {
	L["wire.overhead_ms"] = ms(t.perOp(op, false, client) - t.perOp(op, false, "server"))
	L["server.admission_ms"] = ms(t.perOp(op, false, "admission"))
	L["server.stream_ms"] = ms(t.perOp(op, false, "stream"))
	L["spatialjoin.query_ms"] = ms(t.perOp(op, false, engine))
	L["spatialjoin.scrub_ms"] = ms(t.perOp(op, false, "scrub"))
	L["core.level_ms"] = ms(t.perOp(op, true, "level"))
}
