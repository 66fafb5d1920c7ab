package spatialjoin

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"
)

func openT(t *testing.T) *Database {
	t.Helper()
	db, err := Open(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// loadRandomRects fills a collection with n random rectangles and returns
// them by ID.
func loadRandomRects(t *testing.T, c *Collection, seed int64, n int) []Rect {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	out := make([]Rect, n)
	for i := range out {
		x, y := rng.Float64()*900, rng.Float64()*900
		out[i] = NewRect(x, y, x+rng.Float64()*60, y+rng.Float64()*60)
		id, err := c.Insert(out[i], fmt.Sprintf("obj-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		if id != i {
			t.Fatalf("id = %d, want %d", id, i)
		}
	}
	return out
}

func TestOpenValidation(t *testing.T) {
	bad := []Config{
		{PageSize: 0, BufferPages: 8, FillFactor: 0.5, JoinIndexOrder: 10},
		{PageSize: 2000, BufferPages: 0, FillFactor: 0.5, JoinIndexOrder: 10},
		{PageSize: 2000, BufferPages: 8, FillFactor: 0, JoinIndexOrder: 10},
		{PageSize: 2000, BufferPages: 8, FillFactor: 0.5, JoinIndexOrder: 1},
	}
	for i, cfg := range bad {
		cfg.IndexOptions = DefaultConfig().IndexOptions
		if _, err := Open(cfg); err == nil {
			t.Errorf("config %d must be rejected", i)
		}
	}
}

// TestReopenValidatesLikeOpen checks that Reopen refuses every
// configuration Open refuses, negative workers and query timeouts included.
func TestReopenValidatesLikeOpen(t *testing.T) {
	good := DefaultConfig()
	good.WAL = true
	db, err := Open(good)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	bad := map[string]func(*Config){
		"zero buffer pages":     func(c *Config) { c.BufferPages = 0 },
		"zero fill factor":      func(c *Config) { c.FillFactor = 0 },
		"join index order 1":    func(c *Config) { c.JoinIndexOrder = 1 },
		"negative workers":      func(c *Config) { c.Workers = -1 },
		"negative QueryTimeout": func(c *Config) { c.QueryTimeout = -time.Second },
	}
	for name, mutate := range bad {
		cfg := good
		mutate(&cfg)
		if _, err := Open(cfg); err == nil {
			t.Errorf("%s: Open accepted it", name)
		}
		if _, _, err := Reopen(cfg, db.Device()); err == nil {
			t.Errorf("%s: Reopen accepted it", name)
		}
	}
}

func TestCreateCollection(t *testing.T) {
	db := openT(t)
	c, err := db.CreateCollection("lakes")
	if err != nil {
		t.Fatal(err)
	}
	if c.Name() != "lakes" || c.Len() != 0 {
		t.Fatalf("fresh collection: %s / %d", c.Name(), c.Len())
	}
	if _, err := db.CreateCollection("lakes"); err == nil {
		t.Fatal("duplicate name must fail")
	}
	if _, err := db.CreateCollection(""); err == nil {
		t.Fatal("empty name must fail")
	}
	got, ok := db.Collection("lakes")
	if !ok || got != c {
		t.Fatal("lookup failed")
	}
	if _, ok := db.Collection("rivers"); ok {
		t.Fatal("phantom collection")
	}
}

func TestInsertGetRoundTrip(t *testing.T) {
	db := openT(t)
	c, _ := db.CreateCollection("objs")
	shapes := []Spatial{
		Pt(1, 2),
		NewRect(0, 0, 5, 5),
		RegularPolygon(Pt(10, 10), 3, 6),
	}
	for i, s := range shapes {
		id, err := c.Insert(s, fmt.Sprintf("p%d", i))
		if err != nil {
			t.Fatal(err)
		}
		shape, payload, err := c.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if payload != fmt.Sprintf("p%d", i) {
			t.Fatalf("payload = %q", payload)
		}
		if shape.Bounds() != s.Bounds() {
			t.Fatalf("shape bounds = %v, want %v", shape.Bounds(), s.Bounds())
		}
	}
	if _, err := c.Insert(nil, "x"); err == nil {
		t.Fatal("nil shape must fail")
	}
	if _, _, err := c.Get(99); err == nil {
		t.Fatal("bad id must fail")
	}
	if c.Pages() == 0 {
		t.Fatal("collection must occupy pages")
	}
}

// TestInsertRejectsNonFiniteGeometry inserts shapes whose bounds are NaN or
// infinite between valid ones, with and without a WAL: each must fail with
// ErrInvalidGeometry, leave the database usable, and leave tree and scan
// strategies agreeing on every window (one accepted NaN MBR makes every
// tree select return no rows).
func TestInsertRejectsNonFiniteGeometry(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	bad := []Spatial{
		Rect{MinX: nan, MinY: 0, MaxX: 1, MaxY: 1},
		NewRect(0, 0, inf, 1),
		Pt(-inf, 3),
		Polygon{Pt(0, 0), Pt(4, 0), Pt(2, nan)},
	}
	for _, wal := range []bool{false, true} {
		cfg := DefaultConfig()
		cfg.WAL = wal
		db, err := Open(cfg)
		if err != nil {
			t.Fatal(err)
		}
		c, err := db.CreateCollection("objs")
		if err != nil {
			t.Fatal(err)
		}
		want := loadRandomRects(t, c, 7, 200)
		for _, shape := range bad {
			if _, err := c.Insert(shape, "bad"); !errors.Is(err, ErrInvalidGeometry) {
				t.Errorf("wal=%v: Insert(%v) = %v, want ErrInvalidGeometry", wal, shape.Bounds(), err)
			}
		}
		if c.Len() != len(want) {
			t.Fatalf("wal=%v: Len = %d after rejected inserts, want %d", wal, c.Len(), len(want))
		}
		if id, err := c.Insert(NewRect(10, 10, 20, 20), "after"); err != nil || id != len(want) {
			t.Fatalf("wal=%v: insert after rejections: id=%d err=%v", wal, id, err)
		}
		rng := rand.New(rand.NewSource(11))
		for q := 0; q < 50; q++ {
			x, y := rng.Float64()*900, rng.Float64()*900
			w := NewRect(x, y, x+rng.Float64()*200, y+rng.Float64()*200)
			scan, _, err := db.Select(c, w, Overlaps(), ScanStrategy)
			if err != nil {
				t.Fatal(err)
			}
			tree, _, err := db.Select(c, w, Overlaps(), TreeStrategy)
			if err != nil {
				t.Fatal(err)
			}
			sort.Ints(tree)
			if fmt.Sprint(tree) != fmt.Sprint(scan) {
				t.Fatalf("wal=%v window %v: tree %d rows, scan %d rows", wal, w, len(tree), len(scan))
			}
		}
	}
}

// TestSelectRejectsNonFiniteWindow checks every strategy refuses a selector
// whose bounds are NaN or infinite with ErrInvalidGeometry, instead of the
// tree strategy silently answering no rows while scan answers some, and
// that the database keeps answering valid windows afterwards.
func TestSelectRejectsNonFiniteWindow(t *testing.T) {
	db := openT(t)
	c, _ := db.CreateCollection("objs")
	loadRandomRects(t, c, 3, 200)
	nan, inf := math.NaN(), math.Inf(1)
	for _, w := range []Spatial{
		Rect{MinX: nan, MinY: 0, MaxX: 500, MaxY: 500},
		NewRect(0, 0, inf, 500),
		NewRect(-inf, -inf, inf, inf),
		Pt(nan, 3),
	} {
		for _, strategy := range []Strategy{TreeStrategy, ScanStrategy} {
			ids, _, err := db.Select(c, w, Overlaps(), strategy)
			if !errors.Is(err, ErrInvalidGeometry) {
				t.Errorf("%s Select(%v) = %d rows, %v; want ErrInvalidGeometry", strategy, w.Bounds(), len(ids), err)
			}
		}
	}
	if ids, _, err := db.Select(c, NewRect(0, 0, 1000, 1000), Overlaps(), TreeStrategy); err != nil || len(ids) == 0 {
		t.Fatalf("valid select after rejections: %d rows, %v", len(ids), err)
	}
}

func TestSelectStrategiesAgree(t *testing.T) {
	db := openT(t)
	c, _ := db.CreateCollection("objs")
	loadRandomRects(t, c, 1, 300)
	q := NewRect(200, 200, 500, 520)
	scan, scanStats, err := db.Select(c, q, Overlaps(), ScanStrategy)
	if err != nil {
		t.Fatal(err)
	}
	tree, treeStats, err := db.Select(c, q, Overlaps(), TreeStrategy)
	if err != nil {
		t.Fatal(err)
	}
	sort.Ints(scan)
	sort.Ints(tree)
	if len(scan) != len(tree) {
		t.Fatalf("scan %d vs tree %d", len(scan), len(tree))
	}
	for i := range scan {
		if scan[i] != tree[i] {
			t.Fatal("selection mismatch")
		}
	}
	if len(scan) == 0 {
		t.Fatal("query should match something")
	}
	// The tree strategy must do fewer exact evaluations than the scan.
	if treeStats.ExactEvals >= scanStats.ExactEvals {
		t.Fatalf("tree evals %d ≥ scan evals %d — filter not pruning",
			treeStats.ExactEvals, scanStats.ExactEvals)
	}
}

func TestSelectErrors(t *testing.T) {
	db := openT(t)
	c, _ := db.CreateCollection("objs")
	if _, _, err := db.Select(nil, NewRect(0, 0, 1, 1), Overlaps(), TreeStrategy); err == nil {
		t.Fatal("nil collection must fail")
	}
	if _, _, err := db.Select(c, nil, Overlaps(), TreeStrategy); err == nil {
		t.Fatal("nil selector must fail")
	}
	if _, _, err := db.Select(c, NewRect(0, 0, 1, 1), nil, TreeStrategy); err == nil {
		t.Fatal("nil operator must fail")
	}
	if _, _, err := db.Select(c, NewRect(0, 0, 1, 1), Overlaps(), IndexStrategy); err == nil {
		t.Fatal("ad-hoc index selection must fail")
	}
	if _, _, err := db.Select(c, NewRect(0, 0, 1, 1), Overlaps(), Strategy(9)); err == nil {
		t.Fatal("unknown strategy must fail")
	}
}

func TestJoinStrategiesAgree(t *testing.T) {
	db := openT(t)
	r, _ := db.CreateCollection("r")
	s, _ := db.CreateCollection("s")
	loadRandomRects(t, r, 2, 150)
	loadRandomRects(t, s, 3, 150)
	for _, op := range []Operator{Overlaps(), WithinDistance(100), NorthwestOf()} {
		scan, _, err := db.Join(r, s, op, ScanStrategy)
		if err != nil {
			t.Fatal(err)
		}
		tree, _, err := db.Join(r, s, op, TreeStrategy)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := db.Join(r, s, op, IndexStrategy); err == nil {
			t.Fatal("index join without index must fail")
		}
		if _, _, err := db.BuildJoinIndex(r, s, op); err != nil {
			t.Fatal(err)
		}
		idx, idxStats, err := db.Join(r, s, op, IndexStrategy)
		if err != nil {
			t.Fatal(err)
		}
		key := func(ms []Match) string {
			sort.Slice(ms, func(i, j int) bool {
				if ms[i].R != ms[j].R {
					return ms[i].R < ms[j].R
				}
				return ms[i].S < ms[j].S
			})
			return fmt.Sprint(ms)
		}
		if key(scan) != key(tree) || key(scan) != key(idx) {
			t.Fatalf("%s: strategies disagree (%d/%d/%d pairs)",
				op.Name(), len(scan), len(tree), len(idx))
		}
		if idxStats.ExactEvals != 0 {
			t.Fatal("index join must not evaluate")
		}
	}
}

func TestJoinErrors(t *testing.T) {
	db := openT(t)
	r, _ := db.CreateCollection("r")
	if _, _, err := db.Join(nil, r, Overlaps(), TreeStrategy); err == nil {
		t.Fatal("nil collection must fail")
	}
	if _, _, err := db.Join(r, r, nil, TreeStrategy); err == nil {
		t.Fatal("nil operator must fail")
	}
	if _, _, err := db.Join(r, r, Overlaps(), Strategy(9)); err == nil {
		t.Fatal("unknown strategy must fail")
	}
	if _, _, err := db.BuildJoinIndex(nil, r, Overlaps()); err == nil {
		t.Fatal("nil build must fail")
	}
}

func TestJoinIndexMaintainedOnInsert(t *testing.T) {
	db := openT(t)
	houses, _ := db.CreateCollection("houses")
	lakes, _ := db.CreateCollection("lakes")
	lakes.Insert(NewRect(0, 0, 10, 10), "lake-a")
	houses.Insert(Pt(12, 5), "house-0") // 2 from lake-a
	op := ReachableWithin(5, 1)         // radius 5
	ji, _, err := db.BuildJoinIndex(houses, lakes, op)
	if err != nil {
		t.Fatal(err)
	}
	if ji.Pairs() != 1 {
		t.Fatalf("initial pairs = %d, want 1", ji.Pairs())
	}
	// Insert a matching house: the index must pick it up.
	houses.Insert(Pt(11, 2), "house-1")
	if ji.Pairs() != 2 {
		t.Fatalf("pairs after house insert = %d, want 2", ji.Pairs())
	}
	// Insert a second lake near both houses: maintained from the S side.
	lakes.Insert(NewRect(12, 0, 20, 8), "lake-b")
	if ji.Pairs() != 4 {
		t.Fatalf("pairs after lake insert = %d, want 4", ji.Pairs())
	}
	// The index join answer now reflects all of it.
	pairs, _, err := db.Join(houses, lakes, op, IndexStrategy)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 4 {
		t.Fatalf("index join pairs = %d", len(pairs))
	}
	// Duplicate build must fail.
	if _, _, err := db.BuildJoinIndex(houses, lakes, op); err == nil {
		t.Fatal("duplicate join index must fail")
	}
}

func TestSelectStoredUsesJoinIndex(t *testing.T) {
	db := openT(t)
	r, _ := db.CreateCollection("r")
	s, _ := db.CreateCollection("s")
	loadRandomRects(t, r, 4, 60)
	loadRandomRects(t, s, 5, 60)
	op := Overlaps()
	if _, _, err := db.SelectStored(r, 0, s, op); err == nil {
		t.Fatal("SelectStored without index must fail")
	}
	if _, _, err := db.BuildJoinIndex(r, s, op); err != nil {
		t.Fatal(err)
	}
	for rid := 0; rid < 60; rid += 13 {
		shape, _, err := r.Get(rid)
		if err != nil {
			t.Fatal(err)
		}
		want, _, err := db.Select(s, shape, op, ScanStrategy)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := db.SelectStored(r, rid, s, op)
		if err != nil {
			t.Fatal(err)
		}
		sort.Ints(want)
		sort.Ints(got)
		if fmt.Sprint(want) != fmt.Sprint(got) {
			t.Fatalf("rid %d: stored select mismatch", rid)
		}
	}
}

func TestSelfJoinIndexMaintenance(t *testing.T) {
	db := openT(t)
	c, _ := db.CreateCollection("c")
	c.Insert(NewRect(0, 0, 10, 10), "a")
	ji, _, err := db.BuildJoinIndex(c, c, Overlaps())
	if err != nil {
		t.Fatal(err)
	}
	if ji.Pairs() != 1 { // (0,0)
		t.Fatalf("self pairs = %d", ji.Pairs())
	}
	c.Insert(NewRect(5, 5, 15, 15), "b")
	// New pairs: (1,1), (0,1), (1,0).
	if ji.Pairs() != 4 {
		t.Fatalf("self pairs after insert = %d, want 4", ji.Pairs())
	}
}

func TestIOStatsAndCache(t *testing.T) {
	db := openT(t)
	c, _ := db.CreateCollection("objs")
	loadRandomRects(t, c, 6, 200)
	if err := db.DropCache(); err != nil {
		t.Fatal(err)
	}
	db.ResetIOStats()
	_, stats, err := db.Select(c, NewRect(0, 0, 1000, 1000), Overlaps(), ScanStrategy)
	if err != nil {
		t.Fatal(err)
	}
	if stats.PageReads == 0 {
		t.Fatal("cold scan must read pages")
	}
	if db.IOStats().Misses == 0 {
		t.Fatal("pool stats must reflect the scan")
	}
	// Warm re-run: everything resident (collection is small).
	_, warm, err := db.Select(c, NewRect(0, 0, 1000, 1000), Overlaps(), ScanStrategy)
	if err != nil {
		t.Fatal(err)
	}
	if warm.PageReads != 0 {
		t.Fatalf("warm scan read %d pages", warm.PageReads)
	}
}

func TestStrategyString(t *testing.T) {
	if TreeStrategy.String() != "tree" || ScanStrategy.String() != "scan" || IndexStrategy.String() != "joinindex" {
		t.Fatal("strategy names wrong")
	}
	if Strategy(9).String() != "Strategy(9)" {
		t.Fatal("unknown strategy string wrong")
	}
}

func TestZOverlapJoinFacade(t *testing.T) {
	rs := []Rect{NewRect(0, 0, 10, 10), NewRect(50, 50, 60, 60)}
	ss := []Rect{NewRect(5, 5, 15, 15), NewRect(90, 90, 95, 95)}
	pairs, err := ZOverlapJoin(rs, ss, NewRect(0, 0, 100, 100), 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 1 || pairs[0] != (Match{R: 0, S: 0}) {
		t.Fatalf("pairs = %v", pairs)
	}
	if _, err := ZOverlapJoin(rs, ss, Rect{}, 6); err == nil {
		t.Fatal("bad world must fail")
	}
}

func TestCostModelFacade(t *testing.T) {
	prm := PaperParams()
	m, err := NewCostModel(prm, DistUniform, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	sc := m.SelectCosts(6)
	if sc.CIIb >= sc.CIIa {
		t.Fatal("clustered must beat unclustered at p=0.01 UNIFORM")
	}
	ps, err := LogSpace(1e-6, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	if ss, err := SelectFigure(prm, DistNoLoc, ps, 6); err != nil || len(ss) == 0 {
		t.Fatalf("SelectFigure: %v", err)
	}
	if js, err := JoinFigure(prm, DistHiLoc, ps); err != nil || len(js) != 4 {
		t.Fatalf("JoinFigure: %v", err)
	}
}
