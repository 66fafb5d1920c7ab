// Package ctxpool is a golden fixture for the ctxpool analyzer: a
// parallel.RunCtx launch whose error is discarded treats a
// partially-executed join as complete.
package ctxpool

import (
	"context"

	"spatialjoin/internal/parallel"
)

func launchAndForget(ctx context.Context, n int) {
	parallel.RunCtx(ctx, 0, n, func(int) error { return nil }) // want "discarded error from parallel.RunCtx"
}

func blankError(ctx context.Context, n int) {
	_ = parallel.RunCtx(ctx, 0, n, func(int) error { return nil }) // want "discarded error from parallel.RunCtx"
}

// checked is the approved pattern.
func checked(ctx context.Context, n int) error {
	return parallel.RunCtx(ctx, 0, n, func(int) error { return nil })
}

func suppressed(ctx context.Context, n int) {
	//sjlint:ignore ctxpool fire-and-forget demo workload
	parallel.RunCtx(ctx, 0, n, func(int) error { return nil })
}
