package analysis

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// sharedLoader memoizes type-checked packages (including the stdlib and
// the storage/parallel/geom dependencies the fixtures import) across the
// whole test run.
var sharedLoader = sync.OnceValues(func() (*Loader, error) {
	return NewLoader(".")
})

func loadFixture(t *testing.T, name string) *Package {
	t.Helper()
	l, err := sharedLoader()
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkg, err := l.LoadDir(filepath.Join("testdata", "src", name))
	if err != nil {
		t.Fatalf("loading fixture %s: %v", name, err)
	}
	return pkg
}

// wantRe matches the trailing `// want "substring" ...` annotation of a
// fixture line; quoted substrings are extracted by quotedRe.
var (
	wantRe   = regexp.MustCompile(`// want (.+)$`)
	quotedRe = regexp.MustCompile(`"([^"]*)"`)
)

// fixtureWants parses the expected-diagnostic annotations of every file in
// the fixture package: map from file base name and line to the expected
// message substrings on that line.
func fixtureWants(t *testing.T, pkg *Package) map[string]map[int][]string {
	t.Helper()
	wants := make(map[string]map[int][]string)
	for _, f := range pkg.Files {
		path := pkg.Fset.Position(f.Pos()).Filename
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("reading fixture %s: %v", path, err)
		}
		base := filepath.Base(path)
		for i, line := range strings.Split(string(data), "\n") {
			m := wantRe.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			var subs []string
			for _, q := range quotedRe.FindAllStringSubmatch(m[1], -1) {
				subs = append(subs, q[1])
			}
			if len(subs) == 0 {
				t.Fatalf("%s:%d: want annotation without quoted substring", base, i+1)
			}
			if wants[base] == nil {
				wants[base] = make(map[int][]string)
			}
			wants[base][i+1] = subs
		}
	}
	return wants
}

// runGolden loads the fixture named after the analyzer, runs just that
// analyzer, and requires an exact correspondence between diagnostics and
// want annotations.
func runGolden(t *testing.T, a *Analyzer) {
	t.Helper()
	pkg := loadFixture(t, a.Name)
	wants := fixtureWants(t, pkg)
	if len(wants) == 0 {
		t.Fatalf("fixture %s has no want annotations", a.Name)
	}
	diags := Run(pkg, []*Analyzer{a})
	if len(diags) == 0 {
		t.Fatalf("analyzer %s reported nothing on its fixture", a.Name)
	}
	for _, d := range diags {
		base := filepath.Base(d.Pos.Filename)
		subs := wants[base][d.Pos.Line]
		matched := -1
		for i, sub := range subs {
			if strings.Contains(d.Message, sub) {
				matched = i
				break
			}
		}
		if matched < 0 {
			t.Errorf("unexpected diagnostic %s", d)
			continue
		}
		// Consume the matched expectation so duplicates are caught.
		wants[base][d.Pos.Line] = append(subs[:matched], subs[matched+1:]...)
	}
	for base, lines := range wants {
		for line, subs := range lines {
			for _, sub := range subs {
				t.Errorf("%s:%d: expected diagnostic containing %q was not reported", base, line, sub)
			}
		}
	}
}

func TestRawDiskGolden(t *testing.T)       { runGolden(t, RawDisk) }
func TestAtomicCounterGolden(t *testing.T) { runGolden(t, AtomicCounter) }
func TestFloatEqGolden(t *testing.T)       { runGolden(t, FloatEq) }
func TestErrDropGolden(t *testing.T)       { runGolden(t, ErrDrop) }
func TestCtxPoolGolden(t *testing.T)       { runGolden(t, CtxPool) }
func TestStatsResetGolden(t *testing.T)    { runGolden(t, StatsReset) }
func TestThetaPairGolden(t *testing.T)     { runGolden(t, ThetaPair) }
func TestJoinAllocGolden(t *testing.T)     { runGolden(t, JoinAlloc) }
func TestLockBalanceGolden(t *testing.T)   { runGolden(t, LockBalance) }
func TestSpanCloseGolden(t *testing.T)     { runGolden(t, SpanClose) }
func TestSemReleaseGolden(t *testing.T)    { runGolden(t, SemRelease) }
func TestTxnAtomicGolden(t *testing.T)     { runGolden(t, TxnAtomic) }

// TestRepoIsClean is the self-hosting gate: the entire module must pass
// every analyzer with zero findings, so a regression anywhere in the tree
// fails `go test` as well as CI's explicit sjlint step.
func TestRepoIsClean(t *testing.T) {
	l, err := sharedLoader()
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	pkgs, err := l.Load("./...")
	if err != nil {
		t.Fatalf("loading module: %v", err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("loaded only %d packages; pattern expansion is broken", len(pkgs))
	}
	for _, pkg := range pkgs {
		for _, d := range Run(pkg, All()) {
			t.Errorf("%s", d)
		}
	}
}

// TestRepoIsCleanWithTests extends the self-hosting gate to test code: with
// IncludeTests set the loader augments every package with its _test.go
// files (and surfaces external _test packages), and the suite must still
// come back clean — every real finding in test code is fixed or carries a
// justified suppression. It reuses the shared loader, so the production
// packages and standard library already checked by TestRepoIsClean are
// not type-checked a second time.
func TestRepoIsCleanWithTests(t *testing.T) {
	l, err := sharedLoader()
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	l.IncludeTests = true
	defer func() { l.IncludeTests = false }()
	pkgs, err := l.Load("./...")
	if err != nil {
		t.Fatalf("loading module with tests: %v", err)
	}
	sawTestFile := false
	for _, pkg := range pkgs {
		res := RunAll(pkg, All())
		for _, d := range res.Diagnostics {
			t.Errorf("%s", d)
		}
		for _, pos := range res.BareDirectives {
			t.Errorf("%s:%d: ignore directive without a justification", pos.Filename, pos.Line)
		}
		for _, f := range pkg.Files {
			if strings.HasSuffix(pkg.Fset.Position(f.Pos()).Filename, "_test.go") {
				sawTestFile = true
			}
		}
	}
	if !sawTestFile {
		t.Fatal("IncludeTests loaded no test files; the gate is vacuous")
	}
}

// TestFixturesAreDirty guards the acceptance contract from the other side:
// running the full suite over the fixture tree must produce findings, so a
// silently broken loader or analyzer cannot fake a clean repo.
func TestFixturesAreDirty(t *testing.T) {
	total := 0
	for _, a := range All() {
		pkg := loadFixture(t, a.Name)
		total += len(Run(pkg, All()))
	}
	if total == 0 {
		t.Fatal("analyzer suite found nothing in the deliberately dirty fixtures")
	}
}
