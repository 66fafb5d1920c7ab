package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"strings"
	"testing"
	"time"

	"spatialjoin/internal/core"
	"spatialjoin/internal/geom"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{10000, 99.9}, {1000, 99}, {999, 95}, {200, 95}, {199, 90},
		{100, 90}, {20, 50}, {19, 0}, {0, 0},
	} {
		if got := tailPercentile(c.n); !sameFloat(got, c.want) {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	var ds []time.Duration
	for i := 100; i >= 1; i-- {
		ds = append(ds, time.Duration(i)*time.Millisecond)
	}
	for p, want := range map[float64]time.Duration{50: 50 * time.Millisecond, 95: 95 * time.Millisecond, 99: 99 * time.Millisecond} {
		if got := percentile(ds, p); got != want {
			t.Errorf("p%g = %v, want %v", p, got, want)
		}
	}
}

func TestBlockSize(t *testing.T) {
	for p, want := range map[float64]int{50: 20, 95: 200, 99: 1000} {
		if got := blockSize(p); got != want {
			t.Errorf("blockSize(%g) = %d, want %d", p, got, want)
		}
		if got := tailPercentile(blockSize(p)); got < p {
			t.Errorf("a block for p%g only has enough samples for p%g", p, got)
		}
	}
}

// TestOpsAveragesBlocks checks that the latency figures are means over
// blocks in answer order: a window that ran half at 1 ms and half at 3 ms
// reports 2 ms, whatever order the samples arrive in, where the pooled
// median would be one mode or the other.
func TestOpsAveragesBlocks(t *testing.T) {
	t0 := time.Now()
	var samples []sample
	for i := 0; i < 450; i++ { // blocks of 200 and 250
		lat := time.Millisecond
		if i >= 200 {
			lat = 3 * time.Millisecond
		}
		at := t0.Add(time.Duration(i) * 10 * time.Millisecond)
		samples = append(samples, sample{due: at.Add(-lat), began: at.Add(-lat), answered: at, ok: true})
	}
	samples = append(samples, sample{due: t0, began: t0, answered: t0.Add(time.Hour)}) // failed
	rand.New(rand.NewSource(1)).Shuffle(len(samples), func(i, j int) { samples[i], samples[j] = samples[j], samples[i] })
	r := newReport(options{})
	if err := r.ops("ops", samples, 5*time.Second, 95); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"op_p50_ms", "op_tail_ms"} {
		if !sameFloat(r.e2e[k], 2) {
			t.Errorf("%s = %g, want 2", k, r.e2e[k])
		}
	}
	if !sameFloat(r.e2e["ops_per_s"], 90) {
		t.Errorf("ops_per_s = %g, want 90", r.e2e["ops_per_s"])
	}
	if err := r.ops("ops", samples[:150], time.Second, 95); err == nil {
		t.Error("150 samples reported a p95, want an error: a block needs 200")
	}
}

// TestDatasetSeeds checks that dataset 0 is sjoind's dataset for the run's
// seed, and that no two datasets of nearby runs share a seed.
func TestDatasetSeeds(t *testing.T) {
	seen := make(map[int64]bool)
	for seed := int64(1); seed <= 1000; seed++ {
		if datasetSeed(seed, 0) != seed {
			t.Fatalf("dataset 0 of seed %d has seed %d", seed, datasetSeed(seed, 0))
		}
		for i := 0; i < 8; i++ {
			s := datasetSeed(seed, i)
			if seen[s] {
				t.Fatalf("seed %d dataset %d repeats seed %d", seed, i, s)
			}
			seen[s] = true
		}
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(xs, n=4), the rule the bounds are checked with.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{4, 3, 2, 1}, 1.25, 3.75},
		{[]float64{3.2, 1.5, 9.0, 4.4, 2.2, 7.7, 5.1}, 2.2, 7.7},
	} {
		q1, q3 := quartiles(c.xs)
		if !sameFloat(q1, c.q1) || !sameFloat(q3, c.q3) {
			t.Errorf("quartiles(%v) = %g, %g; want %g, %g", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

// TestOpenLoopChargesStall checks the open-loop accounting: a stall in one
// operation makes the ones due meanwhile start late, and their latency is
// measured from their due time, so the stall is charged to them too.
func TestOpenLoopChargesStall(t *testing.T) {
	const every = 5 * time.Millisecond
	const stall = 40 * time.Millisecond
	start := time.Now().Add(5 * time.Millisecond)
	samples, err := openLoop(start, every, start.Add(10*every), func(k int) (time.Time, bool, error) {
		if k == 0 {
			time.Sleep(stall)
		}
		return time.Now(), true, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 10 {
		t.Fatalf("%d operations ran, want all 10 due in the window", len(samples))
	}
	for k, s := range samples {
		if want := start.Add(time.Duration(k) * every); !s.due.Equal(want) {
			t.Fatalf("op %d due %v, want %v", k, s.due.Sub(start), want.Sub(start))
		}
		// Every op due before the stall ended started after it, and the
		// wait counts in its latency.
		if owed := stall - time.Duration(k)*every; owed > 0 {
			if k > 0 && s.lateness() < owed {
				t.Errorf("op %d started %v late, want at least %v", k, s.lateness(), owed)
			}
			if s.latency() < owed {
				t.Errorf("op %d latency %v, want at least %v from its due time", k, s.latency(), owed)
			}
		}
	}
	_, late, _ := tally(samples)
	if p := percentile(late, 50); p < 10*time.Millisecond {
		t.Errorf("median lateness %v; the stall should make most ops late", p)
	}
}

func TestOracleHandChecked(t *testing.T) {
	rs := []geom.Rect{
		geom.NewRect(0, 0, 2, 2),
		geom.NewRect(5, 5, 6, 6),
		geom.NewRect(10, 0, 11, 1),
	}
	ss := []geom.Rect{
		geom.NewRect(1, 1, 3, 3),     // overlaps r0
		geom.NewRect(2, 2, 4, 4),     // touches r0 at a corner: closed rectangles overlap
		geom.NewRect(6, 6, 7, 7),     // touches r1 at a corner
		geom.NewRect(20, 20, 21, 21), // overlaps nothing
		geom.NewRect(10, 0, 11, 1),   // equals r2
	}
	want := []core.Match{{R: 0, S: 0}, {R: 0, S: 1}, {R: 1, S: 2}, {R: 2, S: 4}}
	if err := sameMatches(sweepJoin(rs, ss), want); err != nil {
		t.Errorf("sweep join: %v", err)
	}
	if got := bruteSelect(ss, geom.NewRect(0, 0, 2, 2)); len(got) != 2 || got[0] != 0 || got[1] != 1 {
		t.Errorf("select = %v, want [0 1]", got)
	}
	if err := sameIDs([]int{1, 0}, []int{0, 1}); err != nil {
		t.Errorf("sameIDs should ignore order: %v", err)
	}
	if err := sameIDs([]int{0}, []int{0, 1}); err == nil {
		t.Error("sameIDs accepted a missing id")
	}
}

// TestSweepAgreesWithNestedLoop cross-checks the plane sweep on random
// inputs with many tied coordinates.
func TestSweepAgreesWithNestedLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	gen := func(n int) []geom.Rect {
		out := make([]geom.Rect, n)
		for i := range out {
			x, y := float64(rng.Intn(20)), float64(rng.Intn(20))
			out[i] = geom.NewRect(x, y, x+float64(rng.Intn(4)), y+float64(rng.Intn(4)))
		}
		return out
	}
	rs, ss := gen(150), gen(170)
	var want []core.Match
	for i, a := range rs {
		for j, b := range ss {
			if a.Intersects(b) {
				want = append(want, core.Match{R: i, S: j})
			}
		}
	}
	if err := sameMatches(sweepJoin(rs, ss), want); err != nil {
		t.Fatal(err)
	}
}

func TestSoundIDs(t *testing.T) {
	all := []geom.Rect{
		geom.NewRect(0, 0, 1, 1),   // base, overlaps the probe
		geom.NewRect(5, 5, 6, 6),   // base, does not
		geom.NewRect(0, 0, 2, 2),   // inserted, overlaps
		geom.NewRect(9, 9, 10, 10), // inserted, does not
	}
	probe := geom.NewRect(0, 0, 1.5, 1.5)
	for _, c := range []struct {
		got []int
		ok  bool
	}{
		{[]int{0}, true},        // trails the primary: insert 2 not yet visible
		{[]int{2, 0}, true},     // caught up
		{[]int{2}, false},       // lost a base rectangle
		{[]int{0, 3}, false},    // returned a rectangle off the probe
		{[]int{0, 4}, false},    // returned an id never inserted
		{[]int{0, 2, 2}, false}, // returned an id twice
	} {
		err := soundIDs(append([]int(nil), c.got...), all, 2, probe)
		if (err == nil) != c.ok {
			t.Errorf("soundIDs(%v) = %v, want ok=%v", c.got, err, c.ok)
		}
	}
}

// TestJoinHotReference pins the join-hot dataset: sjoind's generators at
// seed 42 give 465 overlapping pairs.
func TestJoinHotReference(t *testing.T) {
	d := genDataset(42, 2000)
	if got := len(sweepJoin(d.r, d.s)); got != 465 {
		t.Fatalf("seed-42 join-hot reference has %d matches, want 465", got)
	}
}

func TestSelfTimes(t *testing.T) {
	recs := []spanRec{
		{ID: 1, Name: "root", Start: 0, Dur: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, Dur: 20},
		{ID: 3, Parent: 1, Name: "b", Start: 20, Dur: 30}, // overlaps a by 10
		{ID: 4, Parent: 3, Name: "c", Start: 25, Dur: 5},
	}
	setSelfTimes(recs)
	for i, want := range []int64{60, 20, 25, 5} {
		if recs[i].Self != want {
			t.Errorf("%s self = %d, want %d", recs[i].Name, recs[i].Self, want)
		}
	}
}

// TestCatalogueMatchesBenchmarkJSON keeps BENCHMARK.json and the metrics
// the command prints in step.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var b struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []metric, layer bool) {
		var want []metricDef
		for _, m := range catalogue {
			if m.layer == layer {
				want = append(want, m)
			}
		}
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the command prints %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit || got[i].Better != want[i].better {
				t.Errorf("%s %d: BENCHMARK.json has %+v, the command prints %+v", kind, i, got[i], want[i])
			}
			if !layer && (got[i].Bound == nil || *got[i].Bound <= 0 || *got[i].Bound > 0.25) {
				t.Errorf("%s: bound must be in (0, 0.25]", got[i].Name)
			}
		}
	}
	check("end_to_end", b.EndToEnd, false)
	check("per_layer", b.PerLayer, true)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the command runs %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json has %s, the command runs %s", i, b.Workloads[i].Name, w.name)
		}
	}
}

func TestUsage(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"--workload", "nope"}, &out, &errOut); code != 2 {
		t.Errorf("unknown workload: exit %d, want 2", code)
	}
	if code := run([]string{"--workload", "join-hot", "--trace", "2"}, &out, &errOut); code != 2 {
		t.Errorf("bad --trace: exit %d, want 2", code)
	}
	out.Reset()
	if code := run([]string{"--list"}, &out, &errOut); code != 0 {
		t.Fatalf("--list: exit %d: %s", code, errOut.String())
	}
	for _, m := range catalogue {
		if !strings.Contains(out.String(), m.name) {
			t.Errorf("--list omits %s", m.name)
		}
	}
}

func sameFloat(a, b float64) bool { return math.Abs(a-b) < 1e-9 }
