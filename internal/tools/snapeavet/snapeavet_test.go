package snapeavet_test

import (
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"

	"snapea/internal/tools/snapeavet"
)

// fixtureConfig parameterizes the analyzers for the testdata/mod module
// the same way DefaultConfig does for the real repo.
func fixtureConfig() snapeavet.Config {
	return snapeavet.Config{
		DeterministicPkgs: map[string]bool{"fixture/detorder": true},
		Roots: []snapeavet.Root{
			{Pkg: "fixture/nowallclock", Name: "Run"},
			{Pkg: "fixture/nowallclock", Name: "Plan.Gone"}, // names nothing: must be reported
		},
		AtomicfilePkg: "fixture/atomicfileok",
		MetricPrefixes: map[string]string{
			"engine.": "deterministic",
			"serve.":  "runtime",
		},
		MetricsPkg: "fixture/metrics",
	}
}

var (
	fixtureOnce  sync.Once
	fixtureDiags []snapeavet.Diagnostic
	fixtureErr   error
)

// runFixture type-checks the fixture module and runs every analyzer,
// once per test binary.
func runFixture(t *testing.T) []snapeavet.Diagnostic {
	t.Helper()
	fixtureOnce.Do(func() {
		l, err := snapeavet.NewLoader(filepath.Join("testdata", "mod"))
		if err != nil {
			fixtureErr = err
			return
		}
		pkgs, err := l.LoadAll()
		if err != nil {
			fixtureErr = err
			return
		}
		fixtureDiags, fixtureErr = snapeavet.RunAnalyzers(l.Fset, pkgs, fixtureConfig(), nil)
	})
	if fixtureErr != nil {
		t.Fatalf("loading fixture module: %v", fixtureErr)
	}
	return fixtureDiags
}

type wantDiag struct {
	file    string // base name
	line    int
	substr  string
	matched bool
}

var wantRE = regexp.MustCompile(`// want "([^"]+)"`)

// collectWants scans every fixture source file for // want "substring"
// annotations.
func collectWants(t *testing.T) []*wantDiag {
	t.Helper()
	var wants []*wantDiag
	root := filepath.Join("testdata", "mod")
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(data), "\n") {
			if m := wantRE.FindStringSubmatch(line); m != nil {
				wants = append(wants, &wantDiag{
					file:   filepath.Base(path),
					line:   i + 1,
					substr: m[1],
				})
			}
		}
		return nil
	})
	if err != nil {
		t.Fatalf("scanning fixtures: %v", err)
	}
	if len(wants) == 0 {
		t.Fatal("no // want annotations found in testdata/mod")
	}
	return wants
}

// TestFixtureDiagnosticsMatchWants checks exact agreement between the
// analyzers' output on the fixture module and the // want annotations:
// every want must be hit and every diagnostic must be wanted.
func TestFixtureDiagnosticsMatchWants(t *testing.T) {
	diags := runFixture(t)
	wants := collectWants(t)
	for _, d := range diags {
		found := false
		for _, w := range wants {
			if !w.matched && w.file == filepath.Base(d.Pos.Filename) && w.line == d.Pos.Line && strings.Contains(d.Message, w.substr) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("missing diagnostic: %s:%d expected message containing %q", w.file, w.line, w.substr)
		}
	}
}

// TestEachAnalyzerFlagsSeededViolation is the per-analyzer smoke
// requirement: every analyzer must fire on its seeded fixture
// violation, so a silently-dead analyzer fails the suite.
func TestEachAnalyzerFlagsSeededViolation(t *testing.T) {
	diags := runFixture(t)
	for _, a := range snapeavet.Analyzers() {
		found := false
		for _, d := range diags {
			if d.Analyzer == a.Name {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("analyzer %s reported nothing on its seeded fixture violation", a.Name)
		}
	}
}

// TestRunSingleAnalyzer checks analyzer selection: only the named
// analyzer's diagnostics come back.
func TestRunSingleAnalyzer(t *testing.T) {
	l, err := snapeavet.NewLoader(filepath.Join("testdata", "mod"))
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.LoadAll()
	if err != nil {
		t.Fatal(err)
	}
	diags, err := snapeavet.RunAnalyzers(l.Fset, pkgs, fixtureConfig(), []string{"atomicwrite"})
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) == 0 {
		t.Fatal("atomicwrite reported nothing")
	}
	for _, d := range diags {
		if d.Analyzer != "atomicwrite" {
			t.Errorf("unselected analyzer ran: %s", d)
		}
	}
}

func TestUnknownAnalyzerRejected(t *testing.T) {
	_, err := snapeavet.RunAnalyzers(token.NewFileSet(), nil, snapeavet.Config{}, []string{"nope"})
	if err == nil || !strings.Contains(err.Error(), "unknown analyzer") {
		t.Fatalf("want unknown-analyzer error, got %v", err)
	}
}

// TestRepoTreeClean runs the full analyzer set over the real module:
// the invariant checker must exit clean on the tree it ships in.
func TestRepoTreeClean(t *testing.T) {
	if testing.Short() {
		t.Skip("repo-wide type-check is slow")
	}
	diags, err := snapeavet.Run(filepath.Join("..", "..", ".."), nil)
	if err != nil {
		t.Fatalf("snapeavet.Run: %v", err)
	}
	for _, d := range diags {
		t.Errorf("repo tree not vet-clean: %s", d)
	}
}
