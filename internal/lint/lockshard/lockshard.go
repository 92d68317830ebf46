// Package lockshard enforces the repository's struct locking
// convention: in any struct with a sync.Mutex or sync.RWMutex field,
// the fields declared after the mutex — up to the next sync.Mutex,
// sync.RWMutex, or sync.Once field — are protected by it, and may only
// be read with the mutex (or its read half) held and written with the
// write lock held. The document store (internal/store), the engine
// query cache and the router answer cache all follow this layout.
//
// The analyzer tracks lock state statement by statement: Lock/RLock
// and Unlock/RUnlock calls transition the state for their receiver
// expression, a deferred Unlock keeps the lock held for the rest of
// the function (deferring an Unlock while the lock is NOT held is
// itself reported — the classic defer-before-Lock ordering bug), and
// branches merge conservatively. Two idioms are exempt: functions
// whose name ends in "Locked" (their receiver and protected-struct
// parameters are callee-locked by convention), and values that are
// provably fresh in the current function (assigned from a composite
// literal, new, or make — a constructor's writes precede sharing).
package lockshard

import (
	"go/ast"
	"go/types"
	"strings"

	"repro/internal/lint/analysis"
	"repro/internal/lint/lintutil"
)

// Analyzer flags access to mutex-guarded struct fields without the
// guarding mutex held.
var Analyzer = &analysis.Analyzer{
	Name: "lockshard",
	Doc: "flags reads and writes of mutex-guarded struct fields (fields " +
		"declared after a sync.Mutex/RWMutex) without the guarding lock " +
		"held, and deferred unlocks ordered before their Lock",
	Run: run,
}

// lock states per (base expression, mutex field) key.
const (
	unlocked = 0
	rlocked  = 1
	locked   = 2
)

func isMutex(t types.Type) bool {
	return lintutil.Is(t, "sync", "Mutex") || lintutil.Is(t, "sync", "RWMutex")
}

func isSyncBarrier(t types.Type) bool {
	return isMutex(t) || lintutil.Is(t, "sync", "Once")
}

// guards maps each protected field name of a struct to the name of its
// guarding mutex field. Fields before the first mutex are unguarded;
// a later sync.Mutex/RWMutex/Once field starts a new (or no) region.
func guards(t types.Type) map[string]string {
	fields := lintutil.StructFields(t)
	if fields == nil {
		return nil
	}
	out := map[string]string{}
	current := ""
	for _, f := range fields {
		if isSyncBarrier(f.Type()) {
			if isMutex(f.Type()) {
				current = f.Name()
			} else {
				current = "" // a sync.Once region: guarded by the Once, not us
			}
			continue
		}
		if current != "" {
			out[f.Name()] = current
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// checker walks one function.
type checker struct {
	pass  *analysis.Pass
	fresh map[types.Object]bool // locals assigned from composite/new/make
}

type state struct {
	locks      map[string]int
	terminated bool
}

func newState() *state { return &state{locks: map[string]int{}} }

func (s *state) clone() *state {
	c := newState()
	for k, v := range s.locks {
		c.locks[k] = v
	}
	return c
}

// merge folds another branch's outcome into s: a lock is only held
// after the join if every surviving branch holds it.
func (s *state) merge(o *state) {
	if o.terminated {
		return
	}
	if s.terminated {
		s.locks, s.terminated = o.locks, false
		return
	}
	for k, v := range s.locks {
		if ov := o.locks[k]; ov < v {
			s.locks[k] = ov
		}
	}
	for k := range o.locks {
		if _, ok := s.locks[k]; !ok {
			s.locks[k] = unlocked
		}
	}
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			c := &checker{pass: pass, fresh: map[types.Object]bool{}}
			st := newState()
			if strings.HasSuffix(fd.Name.Name, "Locked") {
				// Callee-locked convention: the caller holds every mutex
				// of the protected structs handed in.
				for _, v := range lintutil.ReceiverAndParams(pass.TypesInfo, fd) {
					mutexes := map[string]bool{}
					for _, mu := range guards(v.Type()) {
						mutexes[mu] = true
					}
					for mu := range mutexes {
						st.locks[v.Name()+"."+mu] = locked
					}
				}
			}
			c.walkBody(fd.Body, st)
		}
	}
	return nil
}

func (c *checker) walkBody(b *ast.BlockStmt, st *state) {
	for _, s := range b.List {
		if st.terminated {
			// Unreachable tail (after return/panic); keep walking with a
			// fresh unlocked state so obvious bugs there still surface.
			st = newState()
		}
		c.walkStmt(s, st)
	}
}

func (c *checker) walkStmt(s ast.Stmt, st *state) {
	switch x := s.(type) {
	case nil:
	case *ast.ExprStmt:
		if call, ok := x.X.(*ast.CallExpr); ok && isPanic(c.pass.TypesInfo, call) {
			c.walkExpr(call, st, false)
			st.terminated = true
			return
		}
		c.walkExpr(x.X, st, false)
	case *ast.AssignStmt:
		for _, r := range x.Rhs {
			c.walkExpr(r, st, false)
		}
		for i, l := range x.Lhs {
			c.walkWrite(l, st)
			if i < len(x.Rhs) {
				c.recordFresh(l, x.Rhs[i])
			}
		}
	case *ast.IncDecStmt:
		c.walkWrite(x.X, st)
	case *ast.DeclStmt:
		if gd, ok := x.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, v := range vs.Values {
					c.walkExpr(v, st, false)
				}
				for i, name := range vs.Names {
					if i < len(vs.Values) {
						c.recordFresh(name, vs.Values[i])
					}
				}
			}
		}
	case *ast.DeferStmt:
		c.walkDefer(x, st)
	case *ast.GoStmt:
		// The goroutine runs later under its own schedule: its body is
		// checked from an unlocked state (inside walkExpr on the FuncLit).
		c.walkExpr(x.Call, st, false)
	case *ast.ReturnStmt:
		for _, r := range x.Results {
			c.walkExpr(r, st, false)
		}
		st.terminated = true
	case *ast.BranchStmt:
		st.terminated = true
	case *ast.BlockStmt:
		c.walkBody(x, st)
	case *ast.IfStmt:
		c.walkStmt(x.Init, st)
		c.walkExpr(x.Cond, st, false)
		then := st.clone()
		c.walkBody(x.Body, then)
		alt := st.clone()
		if x.Else != nil {
			c.walkStmt(x.Else, alt)
		}
		*st = *alt
		st.merge(then)
	case *ast.ForStmt:
		c.walkStmt(x.Init, st)
		if x.Cond != nil {
			c.walkExpr(x.Cond, st, false)
		}
		body := st.clone()
		c.walkBody(x.Body, body)
		c.walkStmt(x.Post, body)
		// After the loop the entry state holds: zero iterations are
		// possible, and a lock taken inside an iteration is paired there.
	case *ast.RangeStmt:
		c.walkExpr(x.X, st, false)
		body := st.clone()
		c.walkBody(x.Body, body)
	case *ast.SwitchStmt:
		c.walkStmt(x.Init, st)
		if x.Tag != nil {
			c.walkExpr(x.Tag, st, false)
		}
		c.walkClauses(x.Body, st)
	case *ast.TypeSwitchStmt:
		c.walkStmt(x.Init, st)
		c.walkStmt(x.Assign, st)
		c.walkClauses(x.Body, st)
	case *ast.SelectStmt:
		c.walkClauses(x.Body, st)
	case *ast.LabeledStmt:
		c.walkStmt(x.Stmt, st)
	case *ast.SendStmt:
		c.walkExpr(x.Chan, st, false)
		c.walkExpr(x.Value, st, false)
	default:
	}
}

// walkClauses runs each case body on a clone of the entry state and
// merges the survivors (plus the fall-through entry state for switches
// without a default, where no case may match).
func (c *checker) walkClauses(body *ast.BlockStmt, st *state) {
	out := st.clone()
	for _, cl := range body.List {
		branch := st.clone()
		switch cc := cl.(type) {
		case *ast.CaseClause:
			for _, e := range cc.List {
				c.walkExpr(e, branch, false)
			}
			for _, s := range cc.Body {
				c.walkStmt(s, branch)
			}
		case *ast.CommClause:
			c.walkStmt(cc.Comm, branch)
			for _, s := range cc.Body {
				c.walkStmt(s, branch)
			}
		}
		out.merge(branch)
	}
	*st = *out
}

// walkDefer handles `defer X.mu.Unlock()` and friends: a deferred
// unlock while the lock is held keeps it held (released at return); a
// deferred unlock while it is NOT held is the defer-before-Lock
// ordering bug. Other deferred calls are walked normally.
func (c *checker) walkDefer(d *ast.DeferStmt, st *state) {
	if key, op, ok := c.lockOp(d.Call); ok {
		switch op {
		case "Unlock", "RUnlock":
			if st.locks[key] == unlocked {
				c.pass.Reportf(d.Pos(), "deferred %s of %s while the lock is not held (defer ordered before Lock?)", op, key)
			}
			// Held until return: no state change.
		default:
			// A deferred Lock is almost certainly a typo for Unlock.
			c.pass.Reportf(d.Pos(), "deferred %s of %s: locks are acquired inline, not deferred", op, key)
		}
		return
	}
	c.walkExpr(d.Call, st, false)
}

// lockOp recognizes a call as base.mu.Lock/RLock/Unlock/RUnlock where
// mu is a guarding mutex field, returning the state key and operation.
func (c *checker) lockOp(call *ast.CallExpr) (key, op string, ok bool) {
	sel, okSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !okSel {
		return "", "", false
	}
	op = sel.Sel.Name
	switch op {
	case "Lock", "RLock", "Unlock", "RUnlock", "TryLock", "TryRLock":
	default:
		return "", "", false
	}
	recv, okRecv := ast.Unparen(sel.X).(*ast.SelectorExpr)
	if !okRecv {
		return "", "", false // a local or embedded mutex: out of scope
	}
	tv, okType := c.pass.TypesInfo.Types[recv]
	if !okType || !isMutex(tv.Type) {
		return "", "", false
	}
	base := ast.Unparen(recv.X)
	if tvb, okb := c.pass.TypesInfo.Types[base]; !okb || guards(tvb.Type) == nil {
		return "", "", false
	}
	return types.ExprString(base) + "." + recv.Sel.Name, op, true
}

// walkExpr scans an expression for lock transitions and guarded field
// reads. write marks the outermost expression as a mutation target.
func (c *checker) walkExpr(e ast.Expr, st *state, write bool) {
	switch x := e.(type) {
	case nil:
	case *ast.CallExpr:
		if key, op, ok := c.lockOp(x); ok {
			switch op {
			case "Lock", "TryLock":
				st.locks[key] = locked
			case "RLock", "TryRLock":
				if st.locks[key] < rlocked {
					st.locks[key] = rlocked
				}
			case "Unlock", "RUnlock":
				if st.locks[key] == unlocked {
					c.pass.Reportf(x.Pos(), "%s of %s while the lock is not held", op, key)
				}
				st.locks[key] = unlocked
			}
			return
		}
		// delete(m, k) and append(s, ...) mutate their first argument.
		if id, ok := ast.Unparen(x.Fun).(*ast.Ident); ok && (id.Name == "delete" || id.Name == "append") && len(x.Args) > 0 {
			if _, isBuiltin := c.pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin {
				c.walkWrite(x.Args[0], st)
				for _, a := range x.Args[1:] {
					c.walkExpr(a, st, false)
				}
				return
			}
		}
		c.walkExpr(x.Fun, st, false)
		for _, a := range x.Args {
			c.walkExpr(a, st, false)
		}
	case *ast.SelectorExpr:
		c.checkFieldAccess(x, st, write)
		c.walkExpr(x.X, st, false)
	case *ast.IndexExpr:
		c.walkExpr(x.X, st, write)
		c.walkExpr(x.Index, st, false)
	case *ast.StarExpr:
		c.walkExpr(x.X, st, write)
	case *ast.ParenExpr:
		c.walkExpr(x.X, st, write)
	case *ast.UnaryExpr:
		c.walkExpr(x.X, st, false)
	case *ast.BinaryExpr:
		c.walkExpr(x.X, st, false)
		c.walkExpr(x.Y, st, false)
	case *ast.CompositeLit:
		for _, el := range x.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				c.walkExpr(kv.Value, st, false)
				continue
			}
			c.walkExpr(el, st, false)
		}
	case *ast.KeyValueExpr:
		c.walkExpr(x.Value, st, false)
	case *ast.TypeAssertExpr:
		c.walkExpr(x.X, st, false)
	case *ast.SliceExpr:
		c.walkExpr(x.X, st, write)
		c.walkExpr(x.Low, st, false)
		c.walkExpr(x.High, st, false)
		c.walkExpr(x.Max, st, false)
	case *ast.FuncLit:
		// A closure may run on any goroutine at any time: check it from
		// an unlocked state. Closures that are invoked while a lock is
		// held and need it should live in a *Locked function instead.
		c.walkBody(x.Body, newState())
	case *ast.Ident:
	default:
	}
}

// walkWrite records a mutation of e.
func (c *checker) walkWrite(e ast.Expr, st *state) {
	c.walkExpr(e, st, true)
}

// checkFieldAccess reports sel when it reads or writes a guarded field
// without the guarding mutex held.
func (c *checker) checkFieldAccess(sel *ast.SelectorExpr, st *state, write bool) {
	s, ok := c.pass.TypesInfo.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return
	}
	base := ast.Unparen(sel.X)
	tv, ok := c.pass.TypesInfo.Types[base]
	if !ok {
		return
	}
	g := guards(tv.Type)
	if g == nil {
		return
	}
	mu, guarded := g[sel.Sel.Name]
	if !guarded {
		return
	}
	if c.isFresh(base) {
		return
	}
	key := types.ExprString(base) + "." + mu
	held := st.locks[key]
	if write && held != locked {
		c.pass.Reportf(sel.Pos(), "write to %s.%s without holding %s", types.ExprString(base), sel.Sel.Name, key)
	} else if !write && held == unlocked {
		c.pass.Reportf(sel.Pos(), "read of %s.%s without holding %s", types.ExprString(base), sel.Sel.Name, key)
	}
}

// recordFresh marks lhs as constructor-fresh when rhs is a composite
// literal (possibly through &), new, or make: a value no other
// goroutine can see yet.
func (c *checker) recordFresh(lhs, rhs ast.Expr) {
	id, ok := ast.Unparen(lhs).(*ast.Ident)
	if !ok {
		return
	}
	obj := c.pass.TypesInfo.Defs[id]
	if obj == nil {
		obj = c.pass.TypesInfo.Uses[id]
	}
	if obj == nil {
		return
	}
	switch r := ast.Unparen(rhs).(type) {
	case *ast.CompositeLit:
		c.fresh[obj] = true
	case *ast.UnaryExpr:
		if _, isLit := ast.Unparen(r.X).(*ast.CompositeLit); isLit {
			c.fresh[obj] = true
		}
	case *ast.CallExpr:
		if fid, ok := ast.Unparen(r.Fun).(*ast.Ident); ok && (fid.Name == "new" || fid.Name == "make") {
			if _, isBuiltin := c.pass.TypesInfo.Uses[fid].(*types.Builtin); isBuiltin {
				c.fresh[obj] = true
			}
		}
	}
}

// isFresh reports whether the root identifier of e is constructor-fresh
// in this function.
func (c *checker) isFresh(e ast.Expr) bool {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			obj := c.pass.TypesInfo.Uses[x]
			if obj == nil {
				obj = c.pass.TypesInfo.Defs[x]
			}
			return obj != nil && c.fresh[obj]
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return false
		}
	}
}

func isPanic(info *types.Info, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "panic" {
		return false
	}
	_, isBuiltin := info.Uses[id].(*types.Builtin)
	return isBuiltin
}
