// Package snapeavet is the repository's custom static-analysis pass: a
// stdlib-only checker (go/parser + go/types + go/ast, no external
// modules) that enforces the determinism, durability and lifecycle
// invariants the headline claims rest on — exact-mode equivalence,
// worker-invariant traces, bit-identical checkpoint resume, balanced
// tensor pooling. Conventions that were previously enforced only by
// after-the-fact tests become build-breaking diagnostics:
//
//   - detorder: no range over a map may feed an encoder, writer,
//     checksum or slice-append in a deterministic package unless the
//     keys are collected and sorted first;
//   - nowallclock: no time.Now/time.Since or global math/rand call may
//     be reachable from a function that produces byte-identical
//     artifacts (engine runs, optimizer passes, checkpoint encodes);
//   - atomicwrite: persisted artifacts (checkpoints, load summaries,
//     metric snapshots) must be written through internal/atomicfile,
//     never raw os.WriteFile/os.Create;
//   - poolbalance: a tensorPool.Get must be matched by a Put (or an
//     ownership hand-off) on every exit path;
//   - metricdomain: metric names must carry a known prefix and be
//     registered in the section (deterministic vs runtime) that prefix
//     demands.
//
// A function whose doc comment carries the //snapea:runtime directive
// is declared to be runtime-side instrumentation (spans, progress ETAs,
// streamed trace files): nowallclock stops traversing into it,
// atomicwrite and detorder skip it. The directive is an assertion the
// reviewer can grep for, not an unchecked escape hatch — DESIGN.md
// ("Static invariants") documents when it is legitimate.
package snapeavet

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// RuntimeDirective marks a function as runtime-side instrumentation,
// exempt from the deterministic-section analyzers.
const RuntimeDirective = "//snapea:runtime"

// Diagnostic is one analyzer finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
}

// Root names one entry point whose transitive callees must stay free of
// wall-clock and global-RNG calls. Name is "Func" for package functions
// and "Recv.Method" for methods (pointer receivers match too).
type Root struct {
	Pkg  string
	Name string
}

// Config parameterizes the analyzers. DefaultConfig returns the
// repository's conventions; fixture tests substitute their own.
type Config struct {
	// DeterministicPkgs are the packages whose serialized output must be
	// byte-identical across runs and worker counts; detorder applies
	// there.
	DeterministicPkgs map[string]bool
	// Roots are the nowallclock entry points. Every entry must resolve
	// to a declared function; one that does not is itself a finding.
	Roots []Root
	// AtomicfilePkg is exempt from atomicwrite (it is the sanctioned
	// writer).
	AtomicfilePkg string
	// MetricPrefixes maps a metric-name prefix to its required domain:
	// "deterministic" or "runtime". Longest prefix wins.
	MetricPrefixes map[string]string
	// MetricsPkg is the import path of the metrics package whose
	// registration calls metricdomain inspects.
	MetricsPkg string
}

// DefaultConfig returns the conventions for module modPath (the repo's
// own module path in production, a fixture path in tests).
func DefaultConfig(modPath string) Config {
	p := func(s string) string { return modPath + "/" + s }
	return Config{
		DeterministicPkgs: map[string]bool{
			p("internal/snapea"):      true,
			p("internal/nn"):          true,
			p("internal/models"):      true,
			p("internal/sim"):         true,
			p("internal/metrics"):     true,
			p("internal/report"):      true,
			p("internal/train"):       true,
			p("internal/prune"):       true,
			p("internal/tensor"):      true,
			p("internal/experiments"): true,
			p("internal/atomicfile"):  true,
			p("internal/fixed"):       true,
		},
		Roots: []Root{
			{p("internal/snapea"), "LayerPlan.Run"},
			{p("internal/snapea"), "LayerPlan.RunChecked"},
			{p("internal/snapea"), "LayerPlan.RunFixed"},
			{p("internal/snapea"), "Network.Forward"},
			{p("internal/snapea"), "Network.ForwardChecked"},
			{p("internal/snapea"), "Optimizer.RunCtx"},
			{p("internal/snapea"), "OptCheckpoint.Save"},
			{p("internal/snapea"), "ParamsFile.Marshal"},
			{p("internal/snapea"), "Compile"},
			{p("internal/snapea"), "CompileFaulty"},
			{p("internal/experiments"), "BenchCheckpoint.Save"},
			{p("internal/metrics"), "Registry.Snapshot"},
			{p("internal/metrics"), "Snapshot.WriteJSON"},
			{p("internal/metrics"), "Snapshot.WriteCSV"},
			{p("internal/sim"), "SimulateCtx"},
		},
		AtomicfilePkg: p("internal/atomicfile"),
		MetricPrefixes: map[string]string{
			"engine.":          "deterministic",
			"sim.":             "deterministic",
			"opt.":             "deterministic",
			"nn.":              "deterministic",
			"nn.gemm.scratch_": "runtime",
			"serve.":           "runtime",
			"gateway.":         "runtime",
			"integrity.":       "runtime",
			"metrics.":         "runtime",
			"experiment.":      "deterministic",
		},
		MetricsPkg: p("internal/metrics"),
	}
}

// Pass is one run of the analyzers over a set of packages. Analyzers
// report through it; the driver collects and sorts the diagnostics.
type Pass struct {
	Fset  *token.FileSet
	Pkgs  []*Package
	Cfg   Config
	diags []Diagnostic

	funcs map[*types.Func]*funcInfo // lazy, built by funcIndex
}

// funcInfo pairs a declared function with its package and directive
// state.
type funcInfo struct {
	decl    *ast.FuncDecl
	pkg     *Package
	runtime bool // carries //snapea:runtime
}

// Reportf records one diagnostic.
func (p *Pass) Reportf(analyzer string, pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: analyzer,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Analyzer is one invariant check.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// Analyzers returns the full analyzer set in reporting order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		DetOrder,
		NoWallClock,
		AtomicWrite,
		PoolBalance,
		MetricDomain,
	}
}

// Run loads every package of the module rooted at root and runs the
// named analyzers (all of them when names is empty) under the default
// configuration. Diagnostics come back sorted by position.
func Run(root string, names []string) ([]Diagnostic, error) {
	l, err := NewLoader(root)
	if err != nil {
		return nil, err
	}
	pkgs, err := l.LoadAll()
	if err != nil {
		return nil, err
	}
	return RunAnalyzers(l.Fset, pkgs, DefaultConfig(l.ModPath), names)
}

// RunAnalyzers runs the named analyzers (all when names is empty) over
// already-loaded packages.
func RunAnalyzers(fset *token.FileSet, pkgs []*Package, cfg Config, names []string) ([]Diagnostic, error) {
	want := make(map[string]bool, len(names))
	for _, n := range names {
		want[n] = true
	}
	pass := &Pass{Fset: fset, Pkgs: pkgs, Cfg: cfg}
	for _, a := range Analyzers() {
		if len(want) > 0 && !want[a.Name] {
			continue
		}
		a.Run(pass)
	}
	for _, n := range names {
		found := false
		for _, a := range Analyzers() {
			if a.Name == n {
				found = true
			}
		}
		if !found {
			return nil, fmt.Errorf("snapeavet: unknown analyzer %q", n)
		}
	}
	sort.Slice(pass.diags, func(i, j int) bool {
		a, b := pass.diags[i], pass.diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Analyzer < b.Analyzer
	})
	return pass.diags, nil
}

// funcIndex builds (once) the map from type-checker function objects to
// their declarations, the call-graph substrate nowallclock traverses
// and the directive lookup every analyzer shares.
func (p *Pass) funcIndex() map[*types.Func]*funcInfo {
	if p.funcs != nil {
		return p.funcs
	}
	p.funcs = make(map[*types.Func]*funcInfo)
	for _, pkg := range p.Pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Name == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				p.funcs[obj] = &funcInfo{
					decl:    fd,
					pkg:     pkg,
					runtime: hasDirective(fd.Doc, RuntimeDirective),
				}
			}
		}
	}
	return p.funcs
}

// hasDirective reports whether a doc comment group carries the given
// //-directive as its own line.
func hasDirective(doc *ast.CommentGroup, directive string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if strings.TrimSpace(c.Text) == directive {
			return true
		}
	}
	return false
}

// enclosingFunc returns the FuncDecl whose body contains pos in file,
// or nil.
func enclosingFunc(file *ast.File, pos token.Pos) *ast.FuncDecl {
	for _, decl := range file.Decls {
		if fd, ok := decl.(*ast.FuncDecl); ok && fd.Pos() <= pos && pos <= fd.End() {
			return fd
		}
	}
	return nil
}

// funcRuntimeExempt reports whether the function enclosing pos carries
// //snapea:runtime.
func funcRuntimeExempt(file *ast.File, pos token.Pos) bool {
	fd := enclosingFunc(file, pos)
	return fd != nil && hasDirective(fd.Doc, RuntimeDirective)
}

// calleeOf resolves the static callee of a call expression to a
// *types.Func, or nil when the callee is dynamic (function values,
// interface methods the checker cannot pin down, builtins).
func calleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		f, _ := info.Uses[fun].(*types.Func)
		return f
	case *ast.SelectorExpr:
		f, _ := info.Uses[fun.Sel].(*types.Func)
		return f
	}
	return nil
}

// recvTypeName returns the bare type name of a method's receiver
// ("tensorPool" for (*tensorPool).Get), or "" for package functions.
func recvTypeName(f *types.Func) string {
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

// funcDisplayName renders a function the way Root.Name spells it.
func funcDisplayName(f *types.Func) string {
	if recv := recvTypeName(f); recv != "" {
		return recv + "." + f.Name()
	}
	return f.Name()
}
