package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The CLI contract tests run on a small self-contained module rather than
// the repository: linting the whole tree is the self-hosting gate's job
// (internal/analysis TestRepoIsClean and TestRepoIsCleanWithTests), and
// these tests only need a clean package, a dirty one, and test-file
// directives to drive every exit code and report field.
var fixtureFiles = map[string]string{
	"go.mod": "module fixture\n\ngo 1.21\n",
	"clean/clean.go": `package clean

import "sync"

// Inc releases the lock on its only path.
func Inc(mu *sync.Mutex, n *int) {
	mu.Lock()
	*n++
	mu.Unlock()
}
`,
	// A test-only file: its justified directive is honored only with -tests.
	"clean/clean_test.go": `package clean

import "sync"

func hold(mu *sync.Mutex) {
	//sjlint:ignore lockbalance the mutex is local to the test and dropped with it
	mu.Lock()
}
`,
	"dirty/dirty.go": `package dirty

import "sync"

func leak(mu *sync.Mutex, bad bool) {
	mu.Lock()
	if bad {
		return
	}
	mu.Unlock()
}

func justified(mu *sync.Mutex, bad bool) {
	//sjlint:ignore lockbalance the caller unlocks on the bad path
	mu.Lock()
	if bad {
		return
	}
	mu.Unlock()
}
`,
}

// inModule writes files as a module under a fresh temporary directory and
// makes it the working directory until the test ends.
func inModule(t *testing.T, files map[string]string) {
	t.Helper()
	dir := t.TempDir()
	for name, src := range files {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if err := os.Chdir(wd); err != nil {
			t.Fatal(err)
		}
	})
}

// TestExitCodeContract verifies the machine-readable exit codes: 0 for a
// clean package, 1 with diagnostics on a dirty one, 2 for usage errors.
func TestExitCodeContract(t *testing.T) {
	inModule(t, fixtureFiles)
	var out, errb bytes.Buffer

	if code := run([]string{"./clean"}, &out, &errb); code != exitClean {
		t.Fatalf("sjlint ./clean = exit %d, want %d\nstdout:\n%s\nstderr:\n%s",
			code, exitClean, out.String(), errb.String())
	}
	if out.Len() != 0 {
		t.Fatalf("clean run printed diagnostics:\n%s", out.String())
	}

	out.Reset()
	errb.Reset()
	if code := run([]string{"./..."}, &out, &errb); code != exitFindings {
		t.Fatalf("sjlint ./... = exit %d, want %d\nstderr:\n%s", code, exitFindings, errb.String())
	}
	if !strings.Contains(out.String(), "dirty.go:6:") || !strings.Contains(out.String(), "lockbalance") {
		t.Fatalf("dirty run did not report the lockbalance finding:\n%s", out.String())
	}

	out.Reset()
	errb.Reset()
	if code := run([]string{"-run", "nosuch"}, &out, &errb); code != exitError {
		t.Fatalf("unknown analyzer = exit %d, want %d", code, exitError)
	}
}

// jsonReport mirrors the -json output shape.
type jsonReport struct {
	Diagnostics []struct {
		File     string `json:"file"`
		Line     int    `json:"line"`
		Analyzer string `json:"analyzer"`
		Message  string `json:"message"`
	} `json:"diagnostics"`
	Suppressed map[string]int `json:"suppressed"`
	Warnings   []string       `json:"warnings"`
}

func runJSON(t *testing.T, wantCode int, args ...string) jsonReport {
	t.Helper()
	var out, errb bytes.Buffer
	if code := run(append([]string{"-json"}, args...), &out, &errb); code != wantCode {
		t.Fatalf("sjlint -json %v = exit %d, want %d\nstdout:\n%s\nstderr:\n%s",
			args, code, wantCode, out.String(), errb.String())
	}
	var rep jsonReport
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("output is not JSON: %v\n%s", err, out.String())
	}
	return rep
}

func TestJSONOutput(t *testing.T) {
	inModule(t, fixtureFiles)
	rep := runJSON(t, exitFindings, "./dirty")
	if len(rep.Diagnostics) != 1 || rep.Diagnostics[0].Analyzer != "lockbalance" ||
		rep.Diagnostics[0].File != filepath.Join("dirty", "dirty.go") || rep.Diagnostics[0].Line != 6 {
		t.Fatalf("unexpected JSON diagnostics: %+v", rep.Diagnostics)
	}
	// The justified suppression must be accounted per analyzer.
	if rep.Suppressed["lockbalance"] != 1 {
		t.Fatalf("suppressed count missing from report: %+v", rep.Suppressed)
	}
	if len(rep.Warnings) != 0 {
		t.Fatalf("justified directive drew a warning: %v", rep.Warnings)
	}
}

// TestTestsFlag verifies -tests extends analysis to _test.go files: the
// directive in the fixture's test file is seen (and honored) only with the
// flag, and the package stays clean either way.
func TestTestsFlag(t *testing.T) {
	inModule(t, fixtureFiles)
	if rep := runJSON(t, exitClean, "./clean"); rep.Suppressed["lockbalance"] != 0 {
		t.Fatalf("test file analyzed without -tests: %+v", rep.Suppressed)
	}
	rep := runJSON(t, exitClean, "-tests", "./clean")
	if rep.Suppressed["lockbalance"] != 1 {
		t.Fatalf("expected the test file's lockbalance suppression, got %+v", rep.Suppressed)
	}
	if len(rep.Warnings) != 0 {
		t.Fatalf("justified directive drew a warning: %v", rep.Warnings)
	}
}

// TestBareDirectiveWarning verifies an //sjlint:ignore with no written
// justification still suppresses but is warned about on stderr.
func TestBareDirectiveWarning(t *testing.T) {
	inModule(t, map[string]string{
		"go.mod": "module scratch\n\ngo 1.21\n",
		"scratch.go": `package scratch

import "sync"

func f(mu *sync.Mutex, bad bool) {
	//sjlint:ignore lockbalance
	mu.Lock()
	if bad {
		return
	}
	mu.Unlock()
}
`,
	})
	var out, errb bytes.Buffer
	code := run([]string{"-run", "lockbalance", "."}, &out, &errb)
	if code != exitClean {
		t.Fatalf("bare directive must still suppress; exit %d\nstdout:\n%s\nstderr:\n%s",
			code, out.String(), errb.String())
	}
	if !strings.Contains(errb.String(), "without a justification") {
		t.Fatalf("no warning for bare directive on stderr:\n%s", errb.String())
	}
}

func TestListAnalyzers(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-list"}, &out, &errb); code != exitClean {
		t.Fatalf("-list = exit %d", code)
	}
	for _, name := range []string{"rawdisk", "atomiccounter", "floateq", "errdrop", "ctxpool"} {
		if !strings.Contains(out.String(), name) {
			t.Errorf("-list output missing analyzer %s:\n%s", name, out.String())
		}
	}
}
