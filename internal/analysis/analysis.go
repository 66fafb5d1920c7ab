// Package analysis is sjlint's in-repo static-analysis framework: a small,
// stdlib-only (go/parser, go/ast, go/types) analogue of
// golang.org/x/tools/go/analysis hosting the domain-specific analyzers that
// mechanically enforce this repository's invariants — pool-mediated disk
// I/O, atomic-only counter access, epsilon-safe float comparison, and
// checked errors on storage and parallel-execution operations.
//
// Each Analyzer inspects one type-checked package and reports diagnostics
// at token positions. The driver (cmd/sjlint) loads packages with Loader,
// runs every analyzer concurrently per package, filters diagnostics through
// //sjlint:ignore suppression comments, and exits non-zero when findings
// remain.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"sync"
)

// Analyzer is one named invariant check over a type-checked package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //sjlint:ignore comments. Lower-case, no spaces.
	Name string
	// Doc is a one-line description shown by `sjlint -list`.
	Doc string
	// Run inspects the package in pass and reports findings via
	// pass.Reportf. It must not retain pass after returning.
	Run func(pass *Pass)
	// SkipTests drops this analyzer's findings in _test.go files when a
	// package is loaded with tests: the invariant it enforces is a
	// production-code discipline that test code legitimately violates
	// (raw device I/O in storage tests, exact float goldens, ...).
	SkipTests bool
}

// Pass carries one package's parsed and type-checked state to an analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	mu    *sync.Mutex
	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos. It is safe for concurrent use by
// the analyzers sharing one package run.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	d := Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	}
	p.mu.Lock()
	*p.diags = append(*p.diags, d)
	p.mu.Unlock()
}

// TypeOf returns the static type of expression e, or nil when untracked.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Info.TypeOf(e) }

// Diagnostic is one finding: an analyzer name, a resolved file position,
// and a message.
type Diagnostic struct {
	Analyzer string         `json:"analyzer"`
	Pos      token.Position `json:"-"`
	Message  string         `json:"message"`
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// All returns the full analyzer suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		RawDisk,
		AtomicCounter,
		FloatEq,
		ErrDrop,
		CtxPool,
		StatsReset,
		ThetaPair,
		JoinAlloc,
		LockBalance,
		SpanClose,
		SemRelease,
		TxnAtomic,
	}
}

// ByName resolves a comma-separated analyzer name list against All,
// returning an error naming any unknown entry.
func ByName(names string) ([]*Analyzer, error) {
	byName := make(map[string]*Analyzer)
	for _, a := range All() {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, n := range strings.Split(names, ",") {
		n = strings.TrimSpace(n)
		if n == "" {
			continue
		}
		a, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q", n)
		}
		out = append(out, a)
	}
	return out, nil
}

// RunResult is the full outcome of analyzing one package: the surviving
// diagnostics plus the suppression accounting the driver exposes.
type RunResult struct {
	// Diagnostics are the findings that survived //sjlint:ignore
	// filtering, sorted by position.
	Diagnostics []Diagnostic
	// Suppressed counts the findings each analyzer produced that an
	// ignore directive swallowed.
	Suppressed map[string]int
	// BareDirectives locate //sjlint:ignore comments carrying no written
	// justification after the analyzer list — a driver warning.
	BareDirectives []token.Position
}

// Run executes the given analyzers over one loaded package concurrently and
// returns the surviving diagnostics sorted by position. Findings suppressed
// by an //sjlint:ignore comment on the same or the preceding line are
// dropped.
func Run(pkg *Package, analyzers []*Analyzer) []Diagnostic {
	return RunAll(pkg, analyzers).Diagnostics
}

// RunAll is Run with the suppression accounting: surviving diagnostics,
// per-analyzer suppressed counts, and the positions of justification-less
// ignore directives.
func RunAll(pkg *Package, analyzers []*Analyzer) RunResult {
	var (
		mu    sync.Mutex
		diags []Diagnostic
		wg    sync.WaitGroup
	)
	for _, a := range analyzers {
		wg.Add(1)
		go func(a *Analyzer) {
			defer wg.Done()
			a.Run(&Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				mu:       &mu,
				diags:    &diags,
			})
		}(a)
	}
	wg.Wait()

	skipTests := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		skipTests[a.Name] = a.SkipTests
	}
	ig := collectIgnores(pkg)
	res := RunResult{Suppressed: make(map[string]int)}
	kept := diags[:0]
	for _, d := range diags {
		if skipTests[d.Analyzer] && strings.HasSuffix(d.Pos.Filename, "_test.go") {
			continue
		}
		if ig.suppresses(d) {
			res.Suppressed[d.Analyzer]++
			continue
		}
		kept = append(kept, d)
	}
	sort.Slice(kept, func(i, j int) bool {
		a, b := kept[i], kept[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	res.Diagnostics = kept
	res.BareDirectives = ig.bare
	return res
}

// ignoreKey locates one //sjlint:ignore directive.
type ignoreKey struct {
	file string
	line int
}

// ignores maps directive locations to the analyzer names they suppress,
// and records directives missing their written justification.
type ignores struct {
	at   map[ignoreKey]map[string]bool
	bare []token.Position
}

// collectIgnores scans every comment in the package for
// //sjlint:ignore name[,name...] reason... directives. A directive
// suppresses matching diagnostics on its own line and on the line directly
// below it (so it can sit at end-of-line or on its own line above the
// finding). The free-form justification after the analyzer list is
// required: a bare directive still suppresses — silencing a finding must
// never depend on prose — but is reported for the driver to warn about.
func collectIgnores(pkg *Package) ignores {
	const prefix = "//sjlint:ignore"
	ig := ignores{at: make(map[ignoreKey]map[string]bool)}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, prefix)
				if !ok || (rest != "" && rest[0] != ' ' && rest[0] != '\t') {
					continue
				}
				// First field is the analyzer list; anything after it is a
				// free-form justification.
				fields := strings.Fields(rest)
				if len(fields) == 0 {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				if len(fields) == 1 {
					ig.bare = append(ig.bare, pos)
				}
				key := ignoreKey{file: pos.Filename, line: pos.Line}
				set := ig.at[key]
				if set == nil {
					set = make(map[string]bool)
					ig.at[key] = set
				}
				for _, name := range strings.Split(fields[0], ",") {
					set[strings.TrimSpace(name)] = true
				}
			}
		}
	}
	sort.Slice(ig.bare, func(i, j int) bool {
		a, b := ig.bare[i], ig.bare[j]
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Line < b.Line
	})
	return ig
}

// suppresses reports whether d is covered by a directive on its line or the
// line above.
func (ig ignores) suppresses(d Diagnostic) bool {
	for _, line := range [2]int{d.Pos.Line, d.Pos.Line - 1} {
		if set, ok := ig.at[ignoreKey{file: d.Pos.Filename, line: line}]; ok && set[d.Analyzer] {
			return true
		}
	}
	return false
}

// inspectAll applies f to every node of every file in the pass.
func inspectAll(pass *Pass, f func(ast.Node) bool) {
	for _, file := range pass.Files {
		ast.Inspect(file, f)
	}
}
