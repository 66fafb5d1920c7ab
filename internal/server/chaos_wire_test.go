package server_test

// Chaos over the wire: the fault-injection schedules the engine-level
// chaos harness runs, replayed through the server. The wire contract is
// stricter than "correct or typed error" — the client must see the exact
// typed status the schedule implies (OK after invisible transient
// recovery, DEGRADED with exact results after permanent index loss,
// TIMEOUT under a starved deadline), and the server's obs counters must
// account for every query exactly.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"spatialjoin"
	"spatialjoin/internal/fault"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/obs"
	"spatialjoin/internal/server"
	"spatialjoin/internal/storage"
	"spatialjoin/internal/wire"
)

// queriesTotal reads back one (kind, status) cell of the per-outcome
// counter family.
func queriesTotal(reg *obs.Registry, kind string, status wire.Status) int64 {
	return reg.Counter("spatialjoin_server_queries_total", "",
		obs.L("kind", kind), obs.L("status", status.Label())).Value()
}

// TestWireChaosTransientInvisible runs a transient-only schedule the
// retry budget always recovers from: every strategy over the wire must
// answer StatusOK with the exact baseline — the faults never surface to
// the client — while DiskStats proves they actually fired.
func TestWireChaosTransientInvisible(t *testing.T) {
	db, r, s := newServerDB(t, true, func(c *spatialjoin.Config) {
		c.Fault = &fault.Options{Seed: 4100, TransientReadRate: 0.08}
		c.Retry = &storage.RetryPolicy{MaxAttempts: 10, Seed: 4100}
	})
	want, _, err := db.Join(r, s, spatialjoin.Overlaps(), spatialjoin.ScanStrategy)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.DropCache(); err != nil {
		t.Fatal(err) // cold cache: wire queries do faulty physical reads
	}

	reg := obs.NewRegistry()
	_, addr := startServer(t, db, server.Options{Metrics: reg})
	cli := dialClient(t, addr)
	ctx := context.Background()
	for _, strat := range []uint8{wire.StrategyScan, wire.StrategyTree, wire.StrategyIndex} {
		res, err := cli.Join(ctx, "r", "s", wire.Overlaps(), strat)
		if err != nil {
			t.Fatalf("strategy %d: %v", strat, err)
		}
		if res.Status != wire.StatusOK {
			t.Fatalf("strategy %d: status %s (%s), want ok", strat, res.Status, res.Message)
		}
		if res.Stats.Downgrades != 0 {
			t.Errorf("strategy %d: %d downgrades over transient faults", strat, res.Stats.Downgrades)
		}
		assertSameMatches(t, fmt.Sprintf("strategy %d", strat), res.Matches, want)
	}
	if got := queriesTotal(reg, "join", wire.StatusOK); got != 3 {
		t.Errorf("queries_total{join,ok} = %d, want 3", got)
	}
	if shed := reg.Counter("spatialjoin_server_queries_shed_total", "").Value(); shed != 0 {
		t.Errorf("queries_shed_total = %d, want 0", shed)
	}
	if ds := db.DiskStats(); ds.ReadFaults == 0 {
		t.Errorf("schedule injected no read faults: %+v", ds)
	}
}

// TestWireChaosIndexLossDegrades marks the join index's backing pair page
// permanently lost: an index-strategy join over the wire must answer
// StatusDegraded carrying the exact baseline (computed by fallback over
// the intact heaps) with the downgrade visible in the Done stats, while a
// scan join — which never touches the lost page — stays StatusOK.
func TestWireChaosIndexLossDegrades(t *testing.T) {
	db, r, s := newServerDB(t, false, func(c *spatialjoin.Config) {
		c.Fault = &fault.Options{Seed: 4200}
	})
	ji, _, err := db.BuildJoinIndex(r, s, spatialjoin.Overlaps())
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := db.Join(r, s, spatialjoin.Overlaps(), spatialjoin.ScanStrategy)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.DropCache(); err != nil {
		t.Fatal(err)
	}
	db.FaultDisk().LosePage(storage.PageID{File: ji.FileID(), Page: 0})

	reg := obs.NewRegistry()
	_, addr := startServer(t, db, server.Options{Metrics: reg})
	cli := dialClient(t, addr)
	ctx := context.Background()

	res, err := cli.Join(ctx, "r", "s", wire.Overlaps(), wire.StrategyIndex)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != wire.StatusDegraded {
		t.Fatalf("index join after index loss: status %s (%s), want degraded", res.Status, res.Message)
	}
	if res.Flags&wire.FlagShed != 0 {
		t.Error("degraded query carries FlagShed; it was executed")
	}
	if res.Stats.Downgrades != 1 {
		t.Errorf("Done stats report %d downgrades, want 1", res.Stats.Downgrades)
	}
	if res.Err() != nil {
		t.Errorf("degraded results are exact; Err() = %v, want nil", res.Err())
	}
	assertSameMatches(t, "degraded index join", res.Matches, want)

	res, err = cli.Join(ctx, "r", "s", wire.Overlaps(), wire.StrategyScan)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != wire.StatusOK || res.Stats.Downgrades != 0 {
		t.Fatalf("scan join after index loss: status %s, %d downgrades", res.Status, res.Stats.Downgrades)
	}
	assertSameMatches(t, "scan join", res.Matches, want)

	if got := queriesTotal(reg, "join", wire.StatusDegraded); got != 1 {
		t.Errorf("queries_total{join,degraded} = %d, want 1", got)
	}
	if got := queriesTotal(reg, "join", wire.StatusOK); got != 1 {
		t.Errorf("queries_total{join,ok} = %d, want 1", got)
	}
}

// TestWireChaosTimeout starves a cold tree join with a per-query deadline
// far below the injected device latency: the client must receive a typed
// StatusTimeout verdict (no results, Err() a *StatusError), accounted
// exactly once.
func TestWireChaosTimeout(t *testing.T) {
	db, _, _ := newServerDB(t, false, func(c *spatialjoin.Config) {
		c.Workers = 1
		c.QueryTimeout = 5 * time.Millisecond
		c.Fault = &fault.Options{Seed: 4300, ReadLatency: 2 * time.Millisecond}
	})
	if err := db.DropCache(); err != nil {
		t.Fatal(err)
	}

	reg := obs.NewRegistry()
	_, addr := startServer(t, db, server.Options{Metrics: reg})
	cli := dialClient(t, addr)

	res, err := cli.Join(context.Background(), "r", "s", wire.Overlaps(), wire.StrategyTree)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != wire.StatusTimeout {
		t.Fatalf("status %s (%s), want timeout", res.Status, res.Message)
	}
	if len(res.Matches) != 0 {
		t.Errorf("timed-out query streamed %d matches", len(res.Matches))
	}
	var se *wire.StatusError
	if err := res.Err(); !errors.As(err, &se) || se.Status != wire.StatusTimeout {
		t.Errorf("Err() = %v, want *StatusError{timeout}", err)
	}
	if got := queriesTotal(reg, "join", wire.StatusTimeout); got != 1 {
		t.Errorf("queries_total{join,timeout} = %d, want 1", got)
	}
	if shed := reg.Counter("spatialjoin_server_queries_shed_total", "").Value(); shed != 0 {
		t.Errorf("timeout was shed-accounted: %d", shed)
	}
}

// TestWireBadRequestAndNotFound asserts malformed and misdirected
// requests get typed verdicts without poisoning the session: the same
// connection answers a good query afterwards. A SELECT window with NaN or
// infinite bounds is a bad request too.
func TestWireBadRequestAndNotFound(t *testing.T) {
	db, r, s := newServerDB(t, false, nil)
	want, _, err := db.Join(r, s, spatialjoin.Overlaps(), spatialjoin.ScanStrategy)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	_, addr := startServer(t, db, server.Options{Metrics: reg})
	cli := dialClient(t, addr)
	ctx := context.Background()

	cases := []struct {
		name string
		run  func() (*wire.Result, error)
		want wire.Status
	}{
		{"unknown collection", func() (*wire.Result, error) {
			return cli.Join(ctx, "r", "nope", wire.Overlaps(), wire.StrategyScan)
		}, wire.StatusNotFound},
		{"unknown operator", func() (*wire.Result, error) {
			return cli.Join(ctx, "r", "s", wire.OpSpec{Code: 99}, wire.StrategyScan)
		}, wire.StatusBadRequest},
		{"unknown strategy", func() (*wire.Result, error) {
			return cli.Join(ctx, "r", "s", wire.Overlaps(), 9)
		}, wire.StatusBadRequest},
		{"NaN window", func() (*wire.Result, error) {
			return cli.Select(ctx, "s", geom.Rect{MinX: math.NaN(), MaxX: 500, MaxY: 500}, wire.Overlaps(), wire.StrategyTree)
		}, wire.StatusBadRequest},
		{"infinite window", func() (*wire.Result, error) {
			return cli.Select(ctx, "s", geom.NewRect(0, 0, math.Inf(1), 500), wire.Overlaps(), wire.StrategyScan)
		}, wire.StatusBadRequest},
	}
	for _, tc := range cases {
		res, err := tc.run()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if res.Status != tc.want {
			t.Errorf("%s: status %s, want %s", tc.name, res.Status, tc.want)
		}
		var se *wire.StatusError
		if err := res.Err(); !errors.As(err, &se) || se.Status != tc.want {
			t.Errorf("%s: Err() = %v, want *StatusError{%s}", tc.name, err, tc.want)
		}
	}

	res, err := cli.Join(ctx, "r", "s", wire.Overlaps(), wire.StrategyScan)
	if err != nil || res.Status != wire.StatusOK {
		t.Fatalf("session did not survive bad requests: %v, %v", err, res)
	}
	assertSameMatches(t, "post-error join", res.Matches, want)
}
