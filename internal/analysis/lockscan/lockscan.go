// Package lockscan walks function bodies tracking which mutexes are
// statically held at each call site. It is the shared engine behind the
// lockorder and lockedcall analyzers.
//
// The scan is a linear, branch-merging approximation: Lock/RLock (and
// the Try variants) push a lock onto an ordered held set, Unlock/RUnlock
// pop the most recent matching entry, `defer mu.Unlock()` is ignored
// (the lock is treated as held to the end of the function), and function
// literals are independent scan roots with an empty held set. Branches
// of an if are scanned on cloned held sets and merged by intersection,
// with terminating branches (return/break/continue/goto/panic) dropped
// from the merge; loop and switch bodies are scanned on clones and do
// not affect the state that follows them.
package lockscan

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// A LockOp is one recognized sync.Mutex / sync.RWMutex method call.
type LockOp struct {
	// ID names the lock as "pkgpath.Type.field" for struct-field mutexes
	// or "pkgpath.var" for package-level ones. Empty when the operand
	// could not be resolved to either (e.g. a local variable).
	ID     string
	Method string
	Pos    token.Pos
}

// Acquires reports whether the operation takes the lock.
func (op LockOp) Acquires() bool {
	switch op.Method {
	case "Lock", "RLock", "TryLock", "TryRLock":
		return true
	}
	return false
}

// A Held records one currently-held lock and where it was acquired.
type Held struct {
	ID  string
	Pos token.Pos
}

// Events receives scan callbacks; nil fields are skipped.
type Events struct {
	// Acquire fires for each recognized lock acquisition, with the locks
	// held immediately before it.
	Acquire func(op LockOp, held []Held)
	// Call fires for every ordinary (non-lock-op) call with the current
	// held set. Deferred calls are delivered with deferred=true; calls
	// launched by a go statement are delivered with an empty held set.
	Call func(call *ast.CallExpr, held []Held, deferred bool)
}

// A Root is one independent scan unit: a declared function or a function
// literal (literals never inherit their enclosing function's held set).
type Root struct {
	Decl *ast.FuncDecl
	Lit  *ast.FuncLit
	Body *ast.BlockStmt
}

// Roots returns every function declaration and function literal in f.
func Roots(f *ast.File) []Root {
	var roots []Root
	ast.Inspect(f, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncDecl:
			if x.Body != nil {
				roots = append(roots, Root{Decl: x, Body: x.Body})
			}
		case *ast.FuncLit:
			roots = append(roots, Root{Lit: x, Body: x.Body})
		}
		return true
	})
	return roots
}

// ScanFunc walks one function body, firing ev as it goes.
func ScanFunc(info *types.Info, body *ast.BlockStmt, ev Events) {
	s := &scanner{info: info, ev: ev}
	var held []Held
	s.block(body, &held)
}

// ResolveLock names the mutex denoted by expr, or reports ok=false for
// operands that are neither struct fields nor package-level variables.
func ResolveLock(info *types.Info, expr ast.Expr) (string, bool) {
	switch x := ast.Unparen(expr).(type) {
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[x]; ok && sel.Kind() == types.FieldVal {
			named := namedOf(sel.Recv())
			if named == nil || named.Obj().Pkg() == nil {
				return "", false
			}
			return named.Obj().Pkg().Path() + "." + named.Obj().Name() + "." + sel.Obj().Name(), true
		}
		return pkgLevelVarID(info.Uses[x.Sel])
	case *ast.Ident:
		return pkgLevelVarID(info.Uses[x])
	}
	return "", false
}

func pkgLevelVarID(obj types.Object) (string, bool) {
	v, ok := obj.(*types.Var)
	if !ok || v.Pkg() == nil || v.Parent() != v.Pkg().Scope() {
		return "", false
	}
	return v.Pkg().Path() + "." + v.Name(), true
}

// AsLockOp recognizes call as a sync.Mutex/RWMutex method invocation.
// Calls on unresolvable operands still return ok=true with an empty ID
// so callers can skip them rather than treat them as ordinary calls.
func AsLockOp(info *types.Info, call *ast.CallExpr) (LockOp, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return LockOp{}, false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return LockOp{}, false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return LockOp{}, false
	}
	named := namedOf(sig.Recv().Type())
	if named == nil || (named.Obj().Name() != "Mutex" && named.Obj().Name() != "RWMutex") {
		return LockOp{}, false
	}
	switch sel.Sel.Name {
	case "Lock", "RLock", "TryLock", "TryRLock", "Unlock", "RUnlock":
	default:
		return LockOp{}, false
	}
	id, _ := ResolveLock(info, sel.X)
	return LockOp{ID: id, Method: sel.Sel.Name, Pos: call.Pos()}, true
}

// CalleeOf resolves a call's static target: a declared function or a
// concrete/interface method. Returns nil for calls through function
// values, conversions, and builtins. Calls into generic code resolve to
// the generic (origin) function, the object its declaration defines, so
// a method of Gen[int] maps to the summary of Gen's method.
func CalleeOf(info *types.Info, call *ast.CallExpr) *types.Func {
	var fn *types.Func
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ = info.Uses[fun].(*types.Func)
	case *ast.SelectorExpr:
		fn, _ = info.Uses[fun.Sel].(*types.Func)
	}
	if fn == nil {
		return nil
	}
	return fn.Origin()
}

func namedOf(t types.Type) *types.Named {
	t = types.Unalias(t)
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	n, _ := t.(*types.Named)
	return n
}

// OwnerName returns the qualified "pkgpath.Type" of a method's receiver
// type (concrete or interface), or "" for non-methods.
func OwnerName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	named := namedOf(sig.Recv().Type())
	if named == nil || named.Obj().Pkg() == nil {
		return ""
	}
	return named.Obj().Pkg().Path() + "." + named.Obj().Name()
}

type scanner struct {
	info *types.Info
	ev   Events
}

func (s *scanner) block(b *ast.BlockStmt, held *[]Held) {
	for _, st := range b.List {
		s.stmt(st, held)
	}
}

func (s *scanner) stmt(st ast.Stmt, held *[]Held) {
	switch x := st.(type) {
	case *ast.BlockStmt:
		s.block(x, held)
	case *ast.ExprStmt:
		s.expr(x.X, held)
	case *ast.AssignStmt:
		for _, e := range x.Rhs {
			s.expr(e, held)
		}
		for _, e := range x.Lhs {
			s.expr(e, held)
		}
	case *ast.DeclStmt:
		if gd, ok := x.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, e := range vs.Values {
						s.expr(e, held)
					}
				}
			}
		}
	case *ast.ReturnStmt:
		for _, e := range x.Results {
			s.expr(e, held)
		}
	case *ast.SendStmt:
		s.expr(x.Chan, held)
		s.expr(x.Value, held)
	case *ast.IncDecStmt:
		s.expr(x.X, held)
	case *ast.LabeledStmt:
		s.stmt(x.Stmt, held)
	case *ast.IfStmt:
		s.ifStmt(x, held)
	case *ast.ForStmt:
		if x.Init != nil {
			s.stmt(x.Init, held)
		}
		s.expr(x.Cond, held)
		body := clone(*held)
		s.block(x.Body, &body)
		if x.Post != nil {
			s.stmt(x.Post, &body)
		}
	case *ast.RangeStmt:
		s.expr(x.X, held)
		body := clone(*held)
		s.block(x.Body, &body)
	case *ast.SwitchStmt:
		if x.Init != nil {
			s.stmt(x.Init, held)
		}
		s.expr(x.Tag, held)
		s.caseClauses(x.Body, held)
	case *ast.TypeSwitchStmt:
		if x.Init != nil {
			s.stmt(x.Init, held)
		}
		s.caseClauses(x.Body, held)
	case *ast.SelectStmt:
		for _, c := range x.Body.List {
			comm, ok := c.(*ast.CommClause)
			if !ok {
				continue
			}
			branch := clone(*held)
			if comm.Comm != nil {
				s.stmt(comm.Comm, &branch)
			}
			for _, st := range comm.Body {
				s.stmt(st, &branch)
			}
		}
	case *ast.DeferStmt:
		if _, ok := AsLockOp(s.info, x.Call); ok {
			return // defer mu.Unlock(): lock stays held to function end
		}
		s.expr(x.Call.Fun, held)
		for _, a := range x.Call.Args {
			s.expr(a, held)
		}
		if _, isLit := x.Call.Fun.(*ast.FuncLit); !isLit && s.ev.Call != nil {
			s.ev.Call(x.Call, *held, true)
		}
	case *ast.GoStmt:
		s.expr(x.Call.Fun, held)
		for _, a := range x.Call.Args {
			s.expr(a, held)
		}
		if _, isLit := x.Call.Fun.(*ast.FuncLit); !isLit && s.ev.Call != nil {
			s.ev.Call(x.Call, nil, false)
		}
	}
}

func (s *scanner) ifStmt(x *ast.IfStmt, held *[]Held) {
	if x.Init != nil {
		s.stmt(x.Init, held)
	}
	s.expr(x.Cond, held)
	body := clone(*held)
	s.block(x.Body, &body)
	els := clone(*held)
	if x.Else != nil {
		s.stmt(x.Else, &els)
	}
	bTerm := terminates(x.Body)
	eTerm := x.Else != nil && terminates(x.Else)
	switch {
	case bTerm && eTerm:
		*held = body
	case bTerm:
		*held = els
	case eTerm:
		*held = body
	default:
		*held = intersect(body, els)
	}
}

func (s *scanner) caseClauses(body *ast.BlockStmt, held *[]Held) {
	for _, c := range body.List {
		cc, ok := c.(*ast.CaseClause)
		if !ok {
			continue
		}
		branch := clone(*held)
		for _, e := range cc.List {
			s.expr(e, &branch)
		}
		for _, st := range cc.Body {
			s.stmt(st, &branch)
		}
	}
}

// expr fires events for every call in e, innermost first (approximating
// evaluation order), skipping function literal bodies.
func (s *scanner) expr(e ast.Expr, held *[]Held) {
	if e == nil {
		return
	}
	var calls []*ast.CallExpr
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			calls = append(calls, n)
		}
		return true
	})
	sort.Slice(calls, func(i, j int) bool { return calls[i].End() < calls[j].End() })
	for _, c := range calls {
		s.call(c, held)
	}
}

func (s *scanner) call(c *ast.CallExpr, held *[]Held) {
	if op, ok := AsLockOp(s.info, c); ok {
		if op.ID == "" {
			return
		}
		if op.Acquires() {
			if s.ev.Acquire != nil {
				s.ev.Acquire(op, *held)
			}
			*held = append(clone(*held), Held{ID: op.ID, Pos: c.Pos()})
		} else {
			release(held, op.ID)
		}
		return
	}
	if s.ev.Call != nil {
		s.ev.Call(c, *held, false)
	}
}

func terminates(st ast.Stmt) bool {
	switch x := st.(type) {
	case *ast.ReturnStmt, *ast.BranchStmt:
		return true
	case *ast.ExprStmt:
		if c, ok := x.X.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(c.Fun).(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	case *ast.BlockStmt:
		if n := len(x.List); n > 0 {
			return terminates(x.List[n-1])
		}
	case *ast.IfStmt:
		return x.Else != nil && terminates(x.Body) && terminates(x.Else)
	case *ast.LabeledStmt:
		return terminates(x.Stmt)
	}
	return false
}

func clone(h []Held) []Held {
	out := make([]Held, len(h))
	copy(out, h)
	return out
}

func intersect(a, b []Held) []Held {
	var out []Held
	for _, h := range a {
		for _, g := range b {
			if g.ID == h.ID {
				out = append(out, h)
				break
			}
		}
	}
	return out
}

func release(held *[]Held, id string) {
	h := *held
	for i := len(h) - 1; i >= 0; i-- {
		if h[i].ID == id {
			*held = append(clone(h[:i]), h[i+1:]...)
			return
		}
	}
}

// HasLockedSuffix reports whether name follows the "*Locked" convention.
func HasLockedSuffix(name string) bool {
	return len(name) > len("Locked") && strings.HasSuffix(name, "Locked")
}
