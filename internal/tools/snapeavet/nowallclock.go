package snapeavet

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// NoWallClock verifies that no wall-clock read (time.Now, time.Since,
// time.Until) and no global math/rand call is statically reachable from
// the functions that produce byte-identical artifacts: engine runs,
// optimizer passes, params encodes, the deterministic
// metrics snapshot, the cycle simulator. Those code paths must depend
// only on their inputs — a clock or ambient RNG read anywhere beneath
// them silently breaks worker invariance and byte-identical reruns.
//
// Methods on a seeded *rand.Rand are allowed (deterministic given the
// seed); only the package-level math/rand functions, which draw from
// the shared global source, are banned. Instrumentation that
// legitimately reads the clock (span timing, progress ETAs) is annotated
// //snapea:runtime, which stops the traversal at that function: the
// annotation asserts its output feeds logs or the runtime metrics
// section, never a deterministic artifact.
//
// The traversal is static and intra-module: calls through function
// values and interface methods are not followed. That is a documented
// soundness gap, kept deliberate to stay within go/types.
var NoWallClock = &Analyzer{
	Name: "nowallclock",
	Doc:  "no time.Now/math/rand reachable from byte-identical-artifact producers",
	Run:  runNoWallClock,
}

// bannedCall classifies a callee as a wall-clock or ambient-RNG source.
func bannedCall(f *types.Func) (what string, banned bool) {
	pkg := f.Pkg()
	if pkg == nil {
		return "", false
	}
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() != nil {
		// Methods ((*rand.Rand).Intn, (time.Time).Sub) are reachable only
		// through values the caller constructed deterministically.
		return "", false
	}
	switch pkg.Path() {
	case "time":
		switch f.Name() {
		case "Now", "Since", "Until":
			return "time." + f.Name(), true
		}
	case "math/rand", "math/rand/v2":
		if f.Name() != "New" && f.Name() != "NewSource" && f.Name() != "NewZipf" && f.Name() != "NewPCG" && f.Name() != "NewChaCha8" {
			return pkg.Path() + "." + f.Name(), true
		}
	}
	return "", false
}

func runNoWallClock(p *Pass) {
	index := p.funcIndex()

	// Resolve the configured roots to declared functions. A root that
	// names no declared function is a finding, not a no-op: deleting or
	// renaming a root would otherwise drop its whole subtree from the
	// check and leave the run green.
	rootSet := make(map[*types.Func]bool)
	resolved := make(map[Root]bool)
	for f, info := range index {
		name := funcDisplayName(f)
		for _, r := range p.Cfg.Roots {
			if info.pkg.Path == r.Pkg && name == r.Name {
				rootSet[f] = true
				resolved[r] = true
			}
		}
	}
	for _, r := range p.Cfg.Roots {
		if resolved[r] {
			continue
		}
		// Reported at the package clause of the package the root should
		// be in, or with no position when that package is not loaded.
		pos := token.NoPos
		for _, pkg := range p.Pkgs {
			if pkg.Path == r.Pkg && len(pkg.Files) > 0 {
				pos = pkg.Files[0].Package
			}
		}
		p.Reportf("nowallclock", pos, "root %s.%s not found: no declared function matches this deterministic root (fix the name in Config.Roots or drop the entry)", r.Pkg, r.Name)
	}

	// BFS over the static call graph from all roots at once, stopping at
	// //snapea:runtime boundaries; parent links reconstruct one witness
	// path per finding.
	parent := make(map[*types.Func]callEdge)
	var queue []*types.Func
	for f := range rootSet {
		parent[f] = callEdge{}
		queue = append(queue, f)
	}
	reported := make(map[*ast.CallExpr]bool)
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		info := index[cur]
		if info == nil || info.decl.Body == nil {
			continue
		}
		ast.Inspect(info.decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := calleeOf(info.pkg.Info, call)
			if callee == nil {
				return true
			}
			if what, bad := bannedCall(callee); bad {
				if !reported[call] {
					reported[call] = true
					p.Reportf("nowallclock", call.Pos(),
						"%s reached from deterministic root via %s; deterministic artifacts must not read the clock or ambient RNG (annotate the function %s only if its output never feeds a deterministic artifact)",
						what, witnessPath(parent, cur), RuntimeDirective)
				}
				return true
			}
			ci := index[callee]
			if ci == nil || ci.runtime {
				// Outside the module, or declared runtime-side: stop.
				return true
			}
			if _, seen := parent[callee]; !seen {
				parent[callee] = callEdge{from: cur, call: call}
				queue = append(queue, callee)
			}
			return true
		})
	}
}

// callEdge is one static call-graph edge discovered by the BFS.
type callEdge struct {
	from *types.Func
	call *ast.CallExpr
}

// witnessPath renders root → ... → f for one discovered function.
func witnessPath(parent map[*types.Func]callEdge, f *types.Func) string {
	var names []string
	for cur := f; cur != nil; {
		names = append(names, funcDisplayName(cur))
		e := parent[cur]
		cur = e.from
	}
	// Reverse into root-first order.
	for i, j := 0, len(names)-1; i < j; i, j = i+1, j-1 {
		names[i], names[j] = names[j], names[i]
	}
	return strings.Join(names, " → ")
}
