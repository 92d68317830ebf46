// Package retryloop enforces the cluster retry discipline: a loop that
// walks peers re-issuing cluster.Node requests — the failover and
// fan-out shape — must consult internal/resilience, or each caller
// invents its own retry storm. A range loop is flagged when its range
// variable is the receiver of a Node request call (Query, Documents,
// PutDocumentAt, ...) and the enclosing function never touches the
// resilience package: no backoff between attempts, no retry-budget
// token, no per-attempt deadline carving.
//
// The exemption is transitive over the same-package call graph, the
// way cancelcheck's checking set is: a function that references any
// internal/resilience object (resilience.Retry, Backoff.Delay,
// WithAttemptsLeft, ...) is resilient, and so is a function that calls
// a resilient same-package function — the discipline may live in a
// helper like Router.beforeAttempt. Calls inside function literals are
// the spawned fan-out shape (one concurrent probe per peer, not a
// retry chain) and are not flagged.
package retryloop

import (
	"go/ast"
	"go/types"

	"repro/internal/lint/analysis"
	"repro/internal/lint/lintutil"
)

// Analyzer flags peer-iteration loops that re-issue Node requests
// without consulting internal/resilience.
var Analyzer = &analysis.Analyzer{
	Name: "retryloop",
	Doc: "flags loops that re-issue cluster.Node requests across peers " +
		"without consulting internal/resilience (backoff, retry budget, " +
		"attempt deadlines); route attempts through resilience.Retry or " +
		"a resilient helper",
	Run: run,
}

// nodeRequestMethods are the cluster.Node methods that put a request
// on the wire; iterating peers around one of these is a retry chain.
var nodeRequestMethods = map[string]bool{
	"do":              true,
	"Healthz":         true,
	"PutDocument":     true,
	"PutDocumentAt":   true,
	"PutDocumentBody": true,
	"GetDocument":     true,
	"DeleteDocument":  true,
	"Documents":       true,
	"Stats":           true,
	"Query":           true,
	"StreamJobs":      true,
}

func run(pass *analysis.Pass) error {
	resilient := resilientFuncs(pass)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func); fn != nil && resilient[fn] {
				continue
			}
			checkFunc(pass, fd)
		}
	}
	return nil
}

// isNodeRequest reports whether call is one of the wire-issuing
// cluster.Node methods, returning its name when it is.
func isNodeRequest(info *types.Info, call *ast.CallExpr) (string, bool) {
	fn := lintutil.CalleeOf(info, call)
	if fn == nil || !nodeRequestMethods[fn.Name()] {
		return "", false
	}
	sig := fn.Type().(*types.Signature)
	if sig.Recv() == nil || !lintutil.Is(sig.Recv().Type(), "cluster", "Node") {
		return "", false
	}
	return fn.Name(), true
}

// resilientFuncs computes the package functions that reach the
// resilience package: direct references first (any use of an object
// declared in a package named "resilience"), then a fixpoint over the
// same-package call graph.
func resilientFuncs(pass *analysis.Pass) map[*types.Func]bool {
	resilient := map[*types.Func]bool{}
	calls := map[*types.Func][]*types.Func{}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if fn == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch e := n.(type) {
				case *ast.Ident:
					if obj := pass.TypesInfo.Uses[e]; obj != nil && obj.Pkg() != nil && obj.Pkg().Name() == "resilience" {
						resilient[fn] = true
					}
				case *ast.CallExpr:
					if callee := lintutil.CalleeOf(pass.TypesInfo, e); callee != nil && callee.Pkg() == pass.Pkg {
						calls[fn] = append(calls[fn], callee)
					}
				}
				return true
			})
		}
	}
	for changed := true; changed; {
		changed = false
		for fn, callees := range calls {
			if resilient[fn] {
				continue
			}
			for _, c := range callees {
				if resilient[c] {
					resilient[fn] = true
					changed = true
					break
				}
			}
		}
	}
	return resilient
}

// checkFunc flags every Node request in fd whose receiver is the range
// variable of an enclosing range loop — the failover chain shape —
// skipping calls inside function literals, whose requests run
// concurrently (one per peer) rather than as successive attempts.
func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		loop, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		value, ok := loop.Value.(*ast.Ident)
		if !ok {
			return true
		}
		rangeVar := pass.TypesInfo.Defs[value]
		if rangeVar == nil {
			return true
		}
		inspectOutsideFuncLits(loop.Body, func(call *ast.CallExpr) {
			name, ok := isNodeRequest(pass.TypesInfo, call)
			if !ok {
				return
			}
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok {
				return
			}
			recv, ok := ast.Unparen(sel.X).(*ast.Ident)
			if !ok || pass.TypesInfo.Uses[recv] != rangeVar {
				return
			}
			pass.Reportf(call.Pos(), "peer loop re-issues Node.%s with no resilience discipline: space attempts with resilience.Retry (or a backoff/budget helper) so a dead peer set cannot trigger a retry storm", name)
		})
		return true
	})
}

// inspectOutsideFuncLits walks body calling f on every call expression
// that is not inside a function literal.
func inspectOutsideFuncLits(body *ast.BlockStmt, f func(*ast.CallExpr)) {
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			f(call)
		}
		return true
	})
}
