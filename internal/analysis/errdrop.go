package analysis

import (
	"go/token"
	"go/types"
)

// ErrDrop flags unchecked errors from storage-layer operations. A dropped
// error from Fetch, WritePage, Flush, or MarkDirty is not just a lost
// failure: the pool's frame state and the disk's I/O accounting are
// updated on the success path, so ignoring the error desynchronizes the
// caller's view of the pool from its true state and corrupts the measured
// cost figures.
var ErrDrop = &Analyzer{
	Name: "errdrop",
	Doc:  "flag unchecked errors from storage and buffer-pool operations",
	Run:  runErrDrop,
	// Tests drop storage errors deliberately when priming state for the
	// scenario under test; the flow-sensitive analyzers cover what matters
	// there (lock balance, transaction atomicity).
	SkipTests: true,
}

func runErrDrop(pass *Pass) {
	checkDiscardedErrors(pass,
		func(fn *types.Func) bool {
			return fn.Pkg() != nil && fn.Pkg().Path() == storagePkgPath
		},
		func(pos token.Pos, fn *types.Func) {
			pass.Reportf(pos, "unchecked error from storage operation %s", fn.Name())
		})
}
