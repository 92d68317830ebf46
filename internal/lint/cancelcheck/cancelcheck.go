// Package cancelcheck enforces the engine cancellation invariant:
// every loop whose trip count is document-sized — a range over an
// xmltree.NodeSet (or []NodeID), or a for loop bounded by
// Document.Len() — must hit an evalutil.Canceller checkpoint on its
// path. A loop is checked if a Check/CheckN call (direct, or through a
// same-package function that transitively checks) runs inside its body,
// or if the enclosing function bills the whole operation with a
// checkpoint before the loop (the bulk CheckN idiom).
//
// Spawned workers are billed separately: a function literal that runs
// concurrently with its spawner — the callee or an argument of a go
// statement — cannot lean on a checkpoint in the spawning function,
// because "billed before the loop" is a happens-before argument and the
// worker's loop does not happen after the spawner's checkpoint in any
// useful sense: the spawner bills once, then every worker would run
// unbilled. Loops inside a spawned literal therefore need a checkpoint
// within that same literal; conversely a checkpoint inside a spawned
// literal never covers a loop outside it.
//
// The analyzer self-gates on canceller access: a function is only
// examined when it can reach a canceller at all — it mentions a
// *evalutil.Canceller-typed expression, or its receiver or a parameter
// is a struct carrying one. Code with no canceller in scope (pure data
// structures, the evalutil primitives themselves) is out of scope; the
// invariant there is the caller's.
package cancelcheck

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/lint/analysis"
	"repro/internal/lint/lintutil"
)

// Analyzer flags document-sized loops with no cancellation checkpoint
// on the loop path.
var Analyzer = &analysis.Analyzer{
	Name: "cancelcheck",
	Doc: "flags loops over document-sized node ranges that never hit an " +
		"evalutil.Canceller checkpoint; bill them with CheckN before the " +
		"loop or call Check inside it",
	Run: run,
}

func run(pass *analysis.Pass) error {
	checking := checkingFuncs(pass)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if !hasCancellerAccess(pass, fd) {
				continue
			}
			checkFunc(pass, fd, checking)
		}
	}
	return nil
}

// isCanceller reports whether t is evalutil.Canceller (or a pointer to
// it).
func isCanceller(t types.Type) bool {
	return lintutil.Is(t, "evalutil", "Canceller")
}

// isCheckCall reports whether call is Canceller.Check or
// Canceller.CheckN.
func isCheckCall(info *types.Info, call *ast.CallExpr) bool {
	fn := lintutil.CalleeOf(info, call)
	if fn == nil || (fn.Name() != "Check" && fn.Name() != "CheckN") {
		return false
	}
	sig := fn.Type().(*types.Signature)
	return sig.Recv() != nil && isCanceller(sig.Recv().Type())
}

// checkingFuncs computes the package functions that reach a
// Check/CheckN call: direct callers first, then a fixpoint over the
// same-package call graph.
func checkingFuncs(pass *analysis.Pass) map[*types.Func]bool {
	checking := map[*types.Func]bool{}
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
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if isCheckCall(pass.TypesInfo, call) {
					checking[fn] = true
				} else if callee := lintutil.CalleeOf(pass.TypesInfo, call); callee != nil && callee.Pkg() == pass.Pkg {
					calls[fn] = append(calls[fn], callee)
				}
				return true
			})
		}
	}
	for changed := true; changed; {
		changed = false
		for fn, callees := range calls {
			if checking[fn] {
				continue
			}
			for _, c := range callees {
				if checking[c] {
					checking[fn] = true
					changed = true
					break
				}
			}
		}
	}
	return checking
}

// hasCancellerAccess reports whether fd can reach a canceller: its body
// mentions a Canceller-typed expression, or its receiver or a parameter
// is a struct with a Canceller field.
func hasCancellerAccess(pass *analysis.Pass, fd *ast.FuncDecl) bool {
	for _, v := range lintutil.ReceiverAndParams(pass.TypesInfo, fd) {
		if isCanceller(v.Type()) {
			return true
		}
		for _, f := range lintutil.StructFields(v.Type()) {
			if isCanceller(f.Type()) {
				return true
			}
		}
	}
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		e, ok := n.(ast.Expr)
		if !ok {
			return true
		}
		if tv, ok := pass.TypesInfo.Types[e]; ok && isCanceller(tv.Type) {
			found = true
			return false
		}
		return true
	})
	return found
}

// docSizedLoop classifies a loop statement as document-sized, returning
// its body when it is: a range over a NodeSet/[]NodeID, or a for loop
// whose condition is bounded by Document.Len() or len(<NodeSet>).
func docSizedLoop(info *types.Info, n ast.Node) *ast.BlockStmt {
	switch l := n.(type) {
	case *ast.RangeStmt:
		if isNodeSlice(info, l.X) {
			return l.Body
		}
	case *ast.ForStmt:
		if l.Cond == nil {
			return nil
		}
		docBound := false
		ast.Inspect(l.Cond, func(c ast.Node) bool {
			call, ok := c.(*ast.CallExpr)
			if !ok {
				return true
			}
			if fn := lintutil.CalleeOf(info, call); fn != nil && fn.Name() == "Len" {
				if sig := fn.Type().(*types.Signature); sig.Recv() != nil && lintutil.Is(sig.Recv().Type(), "xmltree", "Document") {
					docBound = true
					return false
				}
			}
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "len" && len(call.Args) == 1 {
				if info.Uses[id] == types.Universe.Lookup("len") && isNodeSlice(info, call.Args[0]) {
					docBound = true
					return false
				}
			}
			return true
		})
		if docBound {
			return l.Body
		}
	}
	return nil
}

// isNodeSlice reports whether e has type xmltree.NodeSet or
// []xmltree.NodeID.
func isNodeSlice(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	if lintutil.Is(tv.Type, "xmltree", "NodeSet") {
		return true
	}
	if sl, ok := types.Unalias(tv.Type).(*types.Slice); ok {
		return lintutil.Is(sl.Elem(), "xmltree", "NodeID")
	}
	return false
}

// spawnedWorkers collects the function literals in body that run
// concurrently with the enclosing function: the callee or an argument
// of a go statement. A checkpoint in the spawning function happens
// before the worker is even scheduled, so it cannot stand in for
// billing inside the worker.
func spawnedWorkers(body *ast.BlockStmt) []*ast.FuncLit {
	var out []*ast.FuncLit
	add := func(e ast.Expr) {
		if fl, ok := ast.Unparen(e).(*ast.FuncLit); ok {
			out = append(out, fl)
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		if s, ok := n.(*ast.GoStmt); ok {
			add(s.Call.Fun)
			for _, a := range s.Call.Args {
				add(a)
			}
		}
		return true
	})
	return out
}

// within reports whether n lies inside the range [lo, hi].
func within(n ast.Node, lo, hi token.Pos) bool {
	return n.Pos() >= lo && n.End() <= hi
}

// checkFunc flags every document-sized loop in fd that has no
// checkpoint inside its body and none before it in its billing scope —
// the innermost spawned worker literal containing the loop, or the
// whole function when the loop runs on the spawning goroutine.
func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl, checking map[*types.Func]bool) {
	// All positions in fd where a checkpoint provably runs: direct
	// Check/CheckN calls and calls into the package's checking set.
	var checkPos []ast.Node
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if isCheckCall(pass.TypesInfo, call) {
			checkPos = append(checkPos, call)
			return true
		}
		if callee := lintutil.CalleeOf(pass.TypesInfo, call); callee != nil && checking[callee] {
			checkPos = append(checkPos, call)
		}
		return true
	})
	spawned := spawnedWorkers(fd.Body)
	// scopeOf returns the billing scope of node n: the body range of
	// the innermost spawned worker containing it, or the function body.
	scopeOf := func(n ast.Node) (token.Pos, token.Pos, bool) {
		lo, hi, inWorker := fd.Body.Pos(), fd.Body.End(), false
		for _, fl := range spawned {
			if within(n, fl.Body.Pos(), fl.Body.End()) && (!inWorker || fl.Body.Pos() >= lo) {
				lo, hi, inWorker = fl.Body.Pos(), fl.Body.End(), true
			}
		}
		return lo, hi, inWorker
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		body := docSizedLoop(pass.TypesInfo, n)
		if body == nil {
			return true
		}
		lo, hi, inWorker := scopeOf(n)
		for _, c := range checkPos {
			if !within(c, lo, hi) {
				continue // a different goroutine's checkpoint cannot bill this loop
			}
			if cLo, cHi, cWorker := scopeOf(c); cWorker != inWorker || cLo != lo || cHi != hi {
				continue // checkpoint sits in a nested worker, not on this loop's goroutine
			}
			// Inside the loop body, or billed before the loop starts.
			if (c.Pos() >= body.Pos() && c.End() <= body.End()) || c.End() <= n.Pos() {
				return true
			}
		}
		if inWorker {
			pass.Reportf(n.Pos(), "document-sized loop in a spawned worker without a cancellation checkpoint: the worker must bill its own chunk with Canceller.CheckN or call Check inside the loop")
			return true
		}
		pass.Reportf(n.Pos(), "document-sized loop without a cancellation checkpoint: bill it with Canceller.CheckN before the loop or call Check inside it")
		return true
	})
}
