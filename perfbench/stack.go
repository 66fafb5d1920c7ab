package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"strconv"
	"strings"
	"time"

	"spatialjoin"
	"spatialjoin/internal/datagen"
	"spatialjoin/internal/geom"
	"spatialjoin/internal/obs"
	"spatialjoin/internal/server"
	"spatialjoin/internal/storage"
	"spatialjoin/internal/wire"
)

// worldSide is sjoind's default world: a 10000×10000 square.
const worldSide = 10000

// rectBytes is the raw size of one rectangle's geometry: four float64s.
const rectBytes = 32

// dataset is sjoind's synthetic workload: uniform rectangles in r and
// clustered rectangles in s, drawn from one seeded generator in that order.
type dataset struct {
	world geom.Rect
	r, s  []geom.Rect
}

// genDataset draws n rectangles per collection exactly as `sjoind -rects n
// -seed seed` does.
func genDataset(seed int64, n int) dataset {
	w := geom.NewRect(0, 0, worldSide, worldSide)
	rng := rand.New(rand.NewSource(seed))
	r := datagen.UniformRects(rng, n, w, 2, w.MaxX/100)
	s := datagen.ClusteredRects(rng, n, 16, w, w.MaxX/8, w.MaxX/150)
	return dataset{world: w, r: r, s: s}
}

// probes draws n select windows whose side is frac of the world side, with
// corners uniform over the world.
func probes(rng *rand.Rand, n int, world geom.Rect, frac float64) []geom.Rect {
	side := world.Width() * frac
	out := make([]geom.Rect, n)
	for i := range out {
		x := world.MinX + rng.Float64()*(world.Width()-side)
		y := world.MinY + rng.Float64()*(world.Height()-side)
		out[i] = geom.NewRect(x, y, x+side, y+side)
	}
	return out
}

// loadDB opens a database with cfg and loads the dataset into collections
// r and s, inserting one rectangle at a time as sjoind does.
func loadDB(cfg spatialjoin.Config, d dataset) (*spatialjoin.Database, *spatialjoin.Collection, *spatialjoin.Collection, error) {
	db, err := spatialjoin.Open(cfg)
	if err != nil {
		return nil, nil, nil, err
	}
	r, err := loadCollection(db, "r", d.r)
	if err != nil {
		db.Close()
		return nil, nil, nil, err
	}
	s, err := loadCollection(db, "s", d.s)
	if err != nil {
		db.Close()
		return nil, nil, nil, err
	}
	return db, r, s, nil
}

func loadCollection(db *spatialjoin.Database, name string, rects []geom.Rect) (*spatialjoin.Collection, error) {
	col, err := db.CreateCollection(name)
	if err != nil {
		return nil, err
	}
	for _, r := range rects {
		if _, err := col.Insert(r, ""); err != nil {
			return nil, fmt.Errorf("loading %s: %w", name, err)
		}
	}
	return col, nil
}

// served is a query server listening on a loopback port.
type served struct {
	srv  *server.Server
	ln   net.Listener
	addr string
	done chan error
}

// serve starts a server over db (or opts.DB) on an ephemeral loopback port.
func serve(db *spatialjoin.Database, opts server.Options) (*served, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &served{srv: server.New(db, opts), ln: ln, addr: ln.Addr().String(), done: make(chan error, 1)}
	go func() { s.done <- s.srv.Serve(ln) }()
	return s, nil
}

// stop drains the server and waits for Serve to return. It closes the
// listener itself as well: Shutdown closes only the listeners Serve has
// registered, and a Serve that has passed its draining check but not yet
// registered ln when Shutdown runs would accept on it forever. A stack
// torn down right after it was built, as set-up does, hit that window.
func (s *served) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	s.ln.Close() // usually closed by Shutdown already; the error says only that
	if serr := <-s.done; serr != nil && !errors.Is(serr, server.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// dialAll opens n client connections to addr.
func dialAll(addr string, n int) ([]*wire.Client, error) {
	var out []*wire.Client
	for i := 0; i < n; i++ {
		c, err := wire.Dial(addr)
		if err != nil {
			closeAll(out)
			return nil, err
		}
		out = append(out, c)
	}
	return out, nil
}

func closeAll(clients []*wire.Client) {
	for _, c := range clients {
		c.Close()
	}
}

// deviceBytes is the size of every file on the database's device.
func deviceBytes(db *spatialjoin.Database) (float64, error) {
	disk, ok := db.Device().(*storage.Disk)
	if !ok {
		return 0, fmt.Errorf("device is %T, not *storage.Disk", db.Device())
	}
	pages := 0
	for f := 0; f < disk.Files(); f++ {
		pages += disk.NumPages(storage.FileID(f))
	}
	return float64(pages * disk.PageSize()), nil
}

// scrape reads every sample of a registry through its Prometheus
// exposition, keyed by the series name with its labels.
func scrape(reg *obs.Registry) (map[string]float64, error) {
	var b bytes.Buffer
	if err := reg.WritePrometheus(&b); err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(b.String(), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("scrape: %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, nil
}

// family sums every series of one metric family in a scrape.
func family(m map[string]float64, name string) float64 {
	var sum float64
	for k, v := range m {
		if k == name || strings.HasPrefix(k, name+"{") {
			sum += v
		}
	}
	return sum
}
