package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"sort"

	"spatialjoin"
	"spatialjoin/internal/core"
	"spatialjoin/internal/geom"
)

// sweeper is a flat plane-sweep overlaps join: both inputs sorted by MinX,
// each rectangle scanned forward against the other side's rectangles that
// start before it ends. It is both the correctness oracle for join answers
// and the floor the tree join is reported against. Its buffers are reused
// across calls, so a repeated join allocates nothing but the sort closures.
type sweeper struct {
	r, s []int // indexes into the inputs, sorted by MinX
}

// join calls emit(i, j) once for every pair with rs[i] overlapping ss[j]
// (closed rectangles, as geom.Rect.Intersects).
func (w *sweeper) join(rs, ss []geom.Rect, emit func(i, j int)) {
	w.r = sortedByMinX(w.r, rs)
	w.s = sortedByMinX(w.s, ss)
	i, j := 0, 0
	for i < len(w.r) && j < len(w.s) {
		if a := rs[w.r[i]]; a.MinX <= ss[w.s[j]].MinX {
			for k := j; k < len(w.s) && ss[w.s[k]].MinX <= a.MaxX; k++ {
				if b := ss[w.s[k]]; a.MinY <= b.MaxY && b.MinY <= a.MaxY {
					emit(w.r[i], w.s[k])
				}
			}
			i++
			continue
		}
		b := ss[w.s[j]]
		for k := i; k < len(w.r) && rs[w.r[k]].MinX <= b.MaxX; k++ {
			if a := rs[w.r[k]]; a.MinY <= b.MaxY && b.MinY <= a.MaxY {
				emit(w.r[k], w.s[j])
			}
		}
		j++
	}
}

// sortedByMinX fills idx with 0..len(rects)-1 ordered by MinX.
func sortedByMinX(idx []int, rects []geom.Rect) []int {
	idx = idx[:0]
	for i := range rects {
		idx = append(idx, i)
	}
	sort.Slice(idx, func(a, b int) bool { return rects[idx[a]].MinX < rects[idx[b]].MinX })
	return idx
}

// sweepJoin is the reference answer of r ⋈overlaps s in the engine's
// canonical (R, S) order.
func sweepJoin(rs, ss []geom.Rect) []core.Match {
	var w sweeper
	var out []core.Match
	w.join(rs, ss, func(i, j int) { out = append(out, core.Match{R: i, S: j}) })
	core.SortMatches(out)
	return out
}

// bruteSelect is the reference answer of a window select: the ascending
// IDs of every rectangle overlapping the probe.
func bruteSelect(rects []geom.Rect, probe geom.Rect) []int {
	var out []int
	for id, r := range rects {
		if r.Intersects(probe) {
			out = append(out, id)
		}
	}
	return out
}

// sameMatches reports the first difference between two canonical match
// sets, or nil when they are identical.
func sameMatches(got, want []core.Match) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d matches, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("match %d is %v, want %v", i, got[i], want[i])
		}
	}
	return nil
}

// sameIDs compares a select answer, in any order, with the ascending
// reference. got is sorted in place.
func sameIDs(got, want []int) error {
	sort.Ints(got)
	if len(got) != len(want) {
		return fmt.Errorf("%d ids, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("id %d is %d, want %d", i, got[i], want[i])
		}
	}
	return nil
}

// soundIDs checks a select answer read from a replica that may trail the
// primary: every returned ID must name a rectangle that exists (one of the
// first len(all) IDs) and overlaps the probe, and every rectangle of the
// always-present base prefix that overlaps the probe must be returned.
// got is sorted in place.
func soundIDs(got []int, all []geom.Rect, base int, probe geom.Rect) error {
	sort.Ints(got)
	for i, id := range got {
		if id < 0 || id >= len(all) {
			return fmt.Errorf("id %d was never inserted", id)
		}
		if i > 0 && got[i-1] == id {
			return fmt.Errorf("id %d returned twice", id)
		}
		if !all[id].Intersects(probe) {
			return fmt.Errorf("id %d does not overlap the probe", id)
		}
	}
	k := 0
	for id := 0; id < base; id++ {
		if !all[id].Intersects(probe) {
			continue
		}
		for k < len(got) && got[k] < id {
			k++
		}
		if k == len(got) || got[k] != id {
			return fmt.Errorf("base id %d overlaps the probe but is missing", id)
		}
	}
	return nil
}

// fingerprint hashes the collections' geometry in id order, the same way
// sjoind's startup banner does, so a replica can be checked for
// byte-identity with its primary.
func fingerprint(cols ...*spatialjoin.Collection) (uint64, error) {
	h := fnv.New64a()
	var buf [32]byte
	for _, c := range cols {
		for id := 0; id < c.Len(); id++ {
			shape, _, err := c.Get(id)
			if err != nil {
				return 0, err
			}
			b := shape.Bounds()
			binary.LittleEndian.PutUint64(buf[0:], math.Float64bits(b.MinX))
			binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(b.MinY))
			binary.LittleEndian.PutUint64(buf[16:], math.Float64bits(b.MaxX))
			binary.LittleEndian.PutUint64(buf[24:], math.Float64bits(b.MaxY))
			h.Write(buf[:])
		}
	}
	return h.Sum64(), nil
}
