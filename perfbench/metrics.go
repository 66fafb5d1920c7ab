package main

import (
	"fmt"
	"io"
	"strings"
	"text/tabwriter"
)

// metricDef is one figure the benchmark reports. End-to-end metrics are
// printed by untraced runs and carry the bound BENCHMARK.json holds for
// them; per-layer metrics are printed by traced runs.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	layer  bool
	where  string // the workloads that exercise it; elsewhere it reads 0
	moves  string // the end-to-end figure it should move
}

const allWorkloads = "join-hot, select-spill, ingest-replica"

// catalogue lists every metric in the order it is printed.
var catalogue = []metricDef{
	{"setup_s", "s", "lower", false, allWorkloads, "median over every build of a serving stack in the run: nine at the start, then one per later dataset or episode"},
	{"heap_mb", "MB", "lower", false, allWorkloads, "live heap after set-up and a forced GC"},
	{"bytes_per_user_byte", "B/B", "lower", false, allWorkloads, "device bytes over raw geometry bytes (32 per rect) at run end"},
	{"ops_per_s", "1/s", "higher", false, allWorkloads, "operations answered per second: joins on join-hot, selects on select-spill, inserts made visible on the replica on ingest-replica"},
	{"op_p50_ms", "ms", "lower", false, allWorkloads, "median operation latency, as a mean over blocks of operations in answer order; on ingest-replica the replica lag, from an insert's due time to its visibility through Acquire"},
	{"op_tail_ms", "ms", "lower", false, allWorkloads, "operation latency at p95 on join-hot, p99 elsewhere, as a mean over blocks of operations in answer order"},

	{"wire.overhead_ms", "ms", "lower", true, allWorkloads, "op_p50_ms on select-spill"},
	{"wire.codec_ns_per_result", "ns", "lower", true, allWorkloads, "op_p50_ms on select-spill"},
	{"server.admission_ms", "ms", "lower", true, allWorkloads, "op_tail_ms, error rate"},
	{"server.stream_ms", "ms", "lower", true, allWorkloads, "op_tail_ms"},
	{"server.shed_ratio", "ratio", "lower", true, allWorkloads, "error rate, op_tail_ms"},
	{"spatialjoin.query_ms", "ms", "lower", true, allWorkloads, "op_p50_ms"},
	{"spatialjoin.scrub_ms", "ms", "lower", true, allWorkloads, "op_p50_ms, ops_per_s on select-spill"},
	{"spatialjoin.index_reads_per_query", "count", "lower", true, allWorkloads, "op_p50_ms, ops_per_s on select-spill"},
	{"spatialjoin.reopen_ms", "ms", "lower", true, "ingest-replica", "op_p50_ms on ingest-replica, ingest.read_p50_ms"},
	{"core.level_ms", "ms", "lower", true, allWorkloads, "op_p50_ms, ops_per_s on join-hot"},
	{"core.inmem_join_ms", "ms", "lower", true, "join-hot", "op_p50_ms, ops_per_s on join-hot"},
	{"core.filter_evals_per_query", "count", "lower", true, allWorkloads, "op_p50_ms on join-hot"},
	{"core.exact_evals_per_query", "count", "lower", true, allWorkloads, "op_p50_ms on join-hot"},
	{"core.result_ratio", "ratio", "higher", true, allWorkloads, "op_p50_ms on join-hot"},
	{"parallel.speedup_w2", "x", "higher", true, "join-hot", "ops_per_s on join-hot"},
	{"floor.sweep_ms", "ms", "lower", true, "join-hot", "none: the plane-sweep floor"},
	{"floor.multiple", "x", "lower", true, "join-hot", "op_p50_ms on join-hot"},
	{"pred.filter_ns", "ns", "lower", true, allWorkloads, "op_p50_ms on join-hot"},
	{"pred.eval_ns", "ns", "lower", true, allWorkloads, "op_p50_ms on join-hot"},
	{"rtree.insert_us", "us", "lower", true, "ingest-replica", "ingest.insert_p50_us"},
	{"storage.logical_reads_per_query", "count", "lower", true, allWorkloads, "op_p50_ms on join-hot"},
	{"storage.misses_per_query", "count", "lower", true, allWorkloads, "ops_per_s on select-spill"},
	{"storage.evictions_per_query", "count", "lower", true, allWorkloads, "ops_per_s on select-spill"},
	{"storage.hit_ratio", "ratio", "higher", true, allWorkloads, "ops_per_s on select-spill"},
	{"storage.fetch_hit_ns", "ns", "lower", true, allWorkloads, "ops_per_s on join-hot"},
	{"storage.fetch_miss_ns", "ns", "lower", true, allWorkloads, "ops_per_s on select-spill"},
	{"storage.device_writes_per_insert", "count", "lower", true, "ingest-replica", "ingest.insert_p99_us, op_tail_ms on ingest-replica, bytes_per_user_byte"},
	{"wal.bytes_per_insert", "B", "lower", true, "ingest-replica", "ingest.insert_p99_us, op_tail_ms on ingest-replica, bytes_per_user_byte"},
	{"wal.syncs_per_insert", "count", "lower", true, "ingest-replica", "ingest.insert_p99_us"},
	{"wal.page_writes_per_insert", "count", "lower", true, "ingest-replica", "ingest.insert_p99_us, op_tail_ms on ingest-replica, bytes_per_user_byte"},
	{"repl.refreshes_per_s", "1/s", "lower", true, "ingest-replica", "op_p50_ms and op_tail_ms on ingest-replica, ingest.read_p99_ms"},
	{"repl.bytes_per_insert", "B", "lower", true, "ingest-replica", "op_p50_ms and op_tail_ms on ingest-replica"},
	{"repl.chunks_per_s", "1/s", "lower", true, "ingest-replica", "op_p50_ms and op_tail_ms on ingest-replica"},
	{"repl.stale_ratio", "ratio", "lower", true, "ingest-replica", "error rate"},
	{"load.late_p99_ms", "ms", "lower", true, "ingest-replica", "validity of every open-loop figure"},
	{"load.error_rate", "ratio", "lower", true, allWorkloads, "none: failed, refused, timed-out or stale over attempted"},
	{"trace.overhead_pct", "%", "lower", true, allWorkloads, "none: traced over untraced op_p50_ms"},
	{"ingest.read_p50_ms", "ms", "lower", true, "ingest-replica", "none: replica select latency from the due time (bimodal: reads that land on a refresh wait for it)"},
	{"ingest.read_p99_ms", "ms", "lower", true, "ingest-replica", "none: replica select latency from the due time"},
	{"ingest.insert_p50_us", "us", "lower", true, "ingest-replica", "op_p50_ms on ingest-replica: library insert latency from the due time"},
	{"ingest.insert_p99_us", "us", "lower", true, "ingest-replica", "op_tail_ms on ingest-replica: library insert latency from the due time"},
}

// metricNames returns the names of the end-to-end (layer false) or
// per-layer (layer true) metrics in catalogue order.
func metricNames(layer bool) []string {
	var out []string
	for _, m := range catalogue {
		if m.layer == layer {
			out = append(out, m.name)
		}
	}
	return out
}

// unitOf returns a metric's unit.
func unitOf(name string) string {
	for _, m := range catalogue {
		if m.name == name {
			return m.unit
		}
	}
	return ""
}

// writeList prints the catalogue: every metric with its unit, kind, the
// workloads that exercise it, and what it should move.
func writeList(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tunit\tbetter\tkind\tworkloads\tmoves / means")
	for _, m := range catalogue {
		kind := "end-to-end"
		if m.layer {
			kind = "per-layer"
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%s\n", m.name, m.unit, m.better, kind, m.where, m.moves)
	}
	fmt.Fprintln(tw)
	fmt.Fprintln(tw, "workload\tdefault seed\twhy")
	for _, wl := range workloads {
		fmt.Fprintf(tw, "%s\t%d\t%s\n", wl.name, wl.seed, wl.why)
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "\nrun: --workload <%s> [--seed N] [--seconds N] [--trace 0|1] [--repeat N] [--spans FILE]\n",
		strings.Join(workloadNames(), "|"))
	return err
}
