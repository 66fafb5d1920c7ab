package analysis

import (
	"go/token"
	"go/types"
)

// CtxPool flags parallel worker-pool launches whose error result is
// discarded. parallel.RunCtx stops handing out tasks after the first
// failure, so a discarded error means the caller treats a
// partially-executed join as complete — the exact silent-wrong-answer
// failure mode the cross-strategy equivalence harness exists to prevent.
var CtxPool = &Analyzer{
	Name: "ctxpool",
	Doc:  "flag parallel.RunCtx launches whose error result is discarded",
	Run:  runCtxPool,
}

func runCtxPool(pass *Pass) {
	checkDiscardedErrors(pass,
		func(fn *types.Func) bool {
			return fn.Pkg() != nil && fn.Pkg().Path() == parallelPkgPath
		},
		func(pos token.Pos, fn *types.Func) {
			pass.Reportf(pos, "discarded error from parallel.%s: a failed pool run leaves partial results", fn.Name())
		})
}
