package main

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"
)

// sample is one finished operation of a load generator. due is when the
// operation should have started (its start, in a closed loop), began when
// it did, and answered when its answer arrived.
type sample struct {
	due, began, answered time.Time
	ok                   bool
}

// latency is the operation's time from its due time to its answer.
func (s sample) latency() time.Duration { return s.answered.Sub(s.due) }

// lateness is how long after its due time the generator started it.
func (s sample) lateness() time.Duration { return s.began.Sub(s.due) }

// operation performs one request and returns when its answer arrived
// (before the answer is checked) and whether the system served it. An error
// ends the run: a wrong answer or a broken connection.
type operation func(ctx context.Context, worker, seq int) (answered time.Time, ok bool, err error)

// wrongAnswer marks an error as a correctness failure rather than a
// failure to run.
type wrongAnswer struct{ err error }

func (w *wrongAnswer) Error() string { return "wrong answer: " + w.err.Error() }

func wrong(format string, args ...any) error {
	return &wrongAnswer{err: fmt.Errorf(format, args...)}
}

// isWrongAnswer reports whether err records a wrong answer.
func isWrongAnswer(err error) bool {
	var w *wrongAnswer
	return errors.As(err, &w)
}

// closedLoop runs workers goroutines for the window; each issues its next
// operation as soon as the previous one is answered and checked.
func closedLoop(workers int, window time.Duration, op operation) ([]sample, error) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	deadline := time.Now().Add(window)
	var (
		mu       sync.Mutex
		all      []sample
		firstErr error
		wg       sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var mine []sample
			var err error
			for seq := 0; err == nil && ctx.Err() == nil && time.Now().Before(deadline); seq++ {
				began := time.Now()
				var answered time.Time
				var ok bool
				answered, ok, err = op(ctx, w, seq)
				if err == nil {
					mine = append(mine, sample{due: began, began: began, answered: answered, ok: ok})
				}
			}
			mu.Lock()
			defer mu.Unlock()
			all = append(all, mine...)
			if err != nil && firstErr == nil {
				firstErr = err
				cancel()
			}
		}(w)
	}
	wg.Wait()
	return all, firstErr
}

// openLoop issues operation k at start + k·every for every due time before
// end, on the calling goroutine. It never skips or re-times an operation:
// when one stalls, the ones due meanwhile start late, and their latency,
// measured from the due time, includes that wait.
func openLoop(start time.Time, every time.Duration, end time.Time, op func(k int) (answered time.Time, ok bool, err error)) ([]sample, error) {
	var out []sample
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * every)
		if !due.Before(end) {
			return out, nil
		}
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		began := time.Now()
		answered, ok, err := op(k)
		if err != nil {
			return out, err
		}
		out = append(out, sample{due: due, began: began, answered: answered, ok: ok})
	}
}

// tally summarizes samples: the latencies of served operations, the
// lateness of every operation, and how many failed.
func tally(samples []sample) (lat, late []time.Duration, failed int) {
	for _, s := range samples {
		late = append(late, s.lateness())
		if s.ok {
			lat = append(lat, s.latency())
		} else {
			failed++
		}
	}
	return lat, late, failed
}
