// Command perfbench is the repository's benchmark. It drives the real
// serving stack in one process, wired as sjoind wires it — a
// spatialjoin.Database behind server.New on a loopback port, queried by
// wire.Client connections, and for the replica workload a
// repl.Source/repl.Follower pair — checks every answer against an
// independent oracle, and prints every metric by name with its unit. The
// last line of its output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": N, "metrics": {"name": {"value": V, "unit": U}, ...}}
//
// Usage (run.sh builds it from the checkout and runs it from the root):
//
//	perfbench --workload join-hot --seed 42 --seconds 30 --trace 0
//	perfbench --workload select-spill --trace 1 --spans spans.jsonl
//	perfbench --workload ingest-replica --repeat 5
//	perfbench --list
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones
// (from a separate traced window, counter probes, and layer timings).
// --repeat N runs the workload N times on seeds seed..seed+N-1 and prints
// each metric's median and quartiles. See README.md for the metric map.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
	"time"
)

// workload is one set of inputs and one load the benchmark runs.
type workload struct {
	name string
	why  string
	seed int64 // default seed
	run  func(o options) (*report, error)
}

var workloads = []workload{
	{
		name: "join-hot",
		why:  "tree overlaps joins of 2000x2000 rects over the wire, on 8 seeded datasets in turn, all pages resident: traversal, predicate and pool-hit cost under two-query contention",
		seed: 42,
		run: func(o options) (*report, error) {
			return runRead(readSpec{rects: 2000, join: true, tail: 95, warmups: 1, serial: 5, datasets: 8}, o)
		},
	},
	{
		name: "select-spill",
		why:  "small window selects on 20000 rects (~2330 pages vs a 256-page pool), on 8 seeded datasets in turn: miss/eviction path, per-query index scrub, wire fixed cost",
		seed: 42,
		run: func(o options) (*report, error) {
			return runRead(readSpec{rects: 20000, tail: 99, warmups: 50, serial: 200, datasets: 8}, o)
		},
	},
	{
		name: "ingest-replica",
		why:  "open-loop inserts into a WAL primary beside replica selects at 100/s each: WAL, R-tree insert, replication apply and refresh stalls",
		seed: 42,
		run:  runIngest,
	},
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the command line and returns the exit code: 0 on success,
// 1 when the run failed or an answer was wrong, 2 on a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: join-hot, select-spill or ingest-replica")
	seed := fs.Int64("seed", 0, "input seed (0: the workload's default)")
	seconds := fs.Int("seconds", 30, "length of each measured load window in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: a traced run printing the per-layer metrics")
	repeat := fs.Int("repeat", 0, "run the workload this many times on consecutive seeds and print each metric's median and quartiles")
	spans := fs.String("spans", "", "with --trace 1, also write every span of the traced window to this file as JSON lines")
	list := fs.Bool("list", false, "print every metric with its unit and workloads, and the workloads, then exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		if err := writeList(stdout); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil || *seconds < 1 || (*trace != 0 && *trace != 1) || *repeat < 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload one of %v, --seconds >= 1, --trace 0|1\n", workloadNames())
		return 2
	}
	o := options{seed: *seed, window: time.Duration(*seconds) * time.Second, trace: *trace == 1, setups: 9}
	if o.seed == 0 {
		o.seed = wl.seed
	}
	if o.trace {
		o.setups = 1
	}
	if *repeat > 0 {
		return repeatRuns(wl, o, *repeat, stdout, stderr)
	}

	rep, err := wl.run(o)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s seed %d: %v\n", wl.name, o.seed, err)
		if isWrongAnswer(err) && rep != nil {
			if werr := rep.write(stdout, o.trace, false); werr != nil {
				fmt.Fprintln(stderr, "perfbench:", werr)
			}
		}
		return 1
	}
	if err := rep.write(stdout, o.trace, true); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if *spans != "" && rep.tracer != nil {
		if err := writeSpans(*spans, rep.tracer); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}
	return 0
}

func writeSpans(path string, t *tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.writeJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// repeatRuns runs the workload n times on consecutive seeds and prints,
// for each metric the mode reports, its median, quartiles and the
// quartile spread as a share of the median: the evidence the bounds in
// BENCHMARK.json are set from.
func repeatRuns(wl *workload, o options, n int, stdout, stderr io.Writer) int {
	values := make(map[string][]float64)
	for i := 0; i < n; i++ {
		ro := o
		ro.seed = o.seed + int64(i)
		rep, err := wl.run(ro)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s seed %d: %v\n", wl.name, ro.seed, err)
			return 1
		}
		line := fmt.Sprintf("perfbench: %s seed %d:", wl.name, ro.seed)
		for _, k := range metricNames(o.trace) {
			v := rep.metricsOf(o.trace)[k]
			values[k] = append(values[k], v)
			line += fmt.Sprintf(" %s=%.4g", k, v)
		}
		fmt.Fprintln(stderr, line)
	}
	var names []string
	for k := range values {
		names = append(names, k)
	}
	sort.Strings(names)
	tw := tabwriter.NewWriter(stdout, 2, 8, 2, ' ', 0)
	fmt.Fprintf(tw, "%s, %d runs, seeds %d..%d\tunit\tmedian\tq1\tq3\tspread\n", wl.name, n, o.seed, o.seed+int64(n)-1)
	for _, k := range names {
		med := median(values[k])
		q1, q3 := quartiles(values[k])
		spread := 0.0
		if med > 0 {
			spread = (q3 - q1) / med
		}
		fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%.6g\t%.3f\n", k, unitOf(k), med, q1, q3, spread)
	}
	if err := tw.Flush(); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	return 0
}
