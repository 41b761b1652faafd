package snapeavet

import (
	"go/ast"
	"go/types"
)

// AtomicWrite verifies that persisted artifacts go through
// internal/atomicfile. Checkpoints, load summaries, params files
// and metric snapshots are the durability surface of every resumable
// run: a raw os.WriteFile can persist a truncated file across a crash,
// and an os.Create-then-write leaves a visible empty file while the
// write is in flight — exactly the corruption atomicfile's
// temp→chmod→fsync→rename→dir-fsync sequence rules out.
//
// Every call to os.WriteFile or os.Create in the module is therefore a
// diagnostic, with two exceptions: internal/atomicfile itself (the
// sanctioned writer), and functions annotated //snapea:runtime, which
// declare their output to be streaming runtime data (a runtime/trace
// file must be written incrementally and cannot be staged-and-renamed).
var AtomicWrite = &Analyzer{
	Name: "atomicwrite",
	Doc:  "persisted artifacts must be written via internal/atomicfile",
	Run:  runAtomicWrite,
}

func runAtomicWrite(p *Pass) {
	for _, pkg := range p.Pkgs {
		if pkg.Path == p.Cfg.AtomicfilePkg {
			continue
		}
		for _, file := range pkg.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				callee := calleeOf(pkg.Info, call)
				if callee == nil || callee.Pkg() == nil || callee.Pkg().Path() != "os" {
					return true
				}
				if name := callee.Name(); name != "WriteFile" && name != "Create" {
					return true
				}
				if sig, ok := callee.Type().(*types.Signature); !ok || sig.Recv() != nil {
					return true
				}
				if funcRuntimeExempt(file, call.Pos()) {
					return true
				}
				p.Reportf("atomicwrite", call.Pos(),
					"os.%s bypasses internal/atomicfile; persisted artifacts (checkpoints, load summaries, params, metric snapshots) must be written atomically and durably — use atomicfile.WriteFile, or annotate the function %s for streaming runtime output",
					callee.Name(), RuntimeDirective)
				return true
			})
		}
	}
}
