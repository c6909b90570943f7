// Package lockhold mechanizes the service locking contract: a
// sync.Mutex / sync.RWMutex held inside internal/service guards one
// short critical section, and no blocking operation — channel send,
// channel receive, select without default, sync.WaitGroup/Cond Wait,
// time.Sleep — happens while it is held.
//
// The pass is lexical, not a full CFG dataflow: it walks each function
// body in statement order keeping a held-count per mutex expression
// (keyed by its printed form, e.g. "sh.mu"). Branches are analyzed
// with a copy of the state; a branch that terminates (returns/branches
// away) contributes nothing afterwards, a branch that survives merges
// conservatively (held wins). A deferred Unlock never releases within
// the body — that is exactly the contract's point. Function literals
// start with fresh state: a goroutine or callback body does not run
// under the creating goroutine's lock.
package lockhold

import (
	"go/ast"
	"go/types"

	"gridsched/internal/lint/analysis"
	"gridsched/internal/lint/analyzers/lintutil"
)

// Analyzer is the lockhold pass.
var Analyzer = &analysis.Analyzer{
	Name: "lockhold",
	Doc:  "flags blocking operations (sends, receives, Wait, blocking select, Sleep) performed while an internal/service mutex is held",
	Run:  run,
}

const servicePkg = "gridsched/internal/service"

func run(pass *analysis.Pass) error {
	if pass.Pkg.Path() != servicePkg {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					w := &walker{pass: pass}
					w.stmts(n.Body.List, held{})
				}
				return true // descend: FuncLits inside are found below
			case *ast.FuncLit:
				w := &walker{pass: pass}
				w.stmts(n.Body.List, held{})
				return true
			}
			return true
		})
	}
	return nil
}

// held maps a mutex expression's printed form to its hold count.
type held map[string]int

func (h held) clone() held {
	c := make(held, len(h))
	for k, v := range h {
		c[k] = v
	}
	return c
}

// any returns the printed form of one held mutex, or "".
func (h held) any() string {
	best := ""
	for k, v := range h {
		if v > 0 && (best == "" || k < best) {
			best = k
		}
	}
	return best
}

// merge folds the surviving state o into h, keeping the maximum hold
// count per mutex (conservative: held wins over released).
func (h held) merge(o held) {
	for k, v := range o {
		if v > h[k] {
			h[k] = v
		}
	}
}

type walker struct {
	pass *analysis.Pass
}

// stmts walks a statement list, mutating h, and reports whether the
// list definitely transfers control away (return / branch).
func (w *walker) stmts(list []ast.Stmt, h held) bool {
	for _, s := range list {
		if w.stmt(s, h) {
			return true
		}
	}
	return false
}

// stmt processes one statement; the bool mirrors stmts.
func (w *walker) stmt(s ast.Stmt, h held) bool {
	switch s := s.(type) {
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok && w.lockOp(call, h) {
			return false
		}
		w.exprs(h, s.X)
	case *ast.SendStmt:
		if m := h.any(); m != "" {
			w.pass.Reportf(s.Arrow, "channel send while %q is held; release the lock before blocking (service lock contract)", m)
		}
		w.exprs(h, s.Chan, s.Value)
	case *ast.AssignStmt:
		w.exprs(h, s.Rhs...)
		w.exprs(h, s.Lhs...)
	case *ast.DeferStmt:
		// A deferred Unlock releases at function exit, not here; any
		// other deferred call runs later too. Only its arguments are
		// evaluated now.
		if _, method, ok := lintutil.MethodCall(s.Call); !ok || (method != "Unlock" && method != "RUnlock") {
			w.exprs(h, s.Call.Args...)
		}
	case *ast.GoStmt:
		w.exprs(h, s.Call.Args...) // the spawned body runs lock-free; see run
	case *ast.ReturnStmt:
		w.exprs(h, s.Results...)
		return true
	case *ast.BranchStmt:
		return true
	case *ast.BlockStmt:
		return w.stmts(s.List, h)
	case *ast.LabeledStmt:
		return w.stmt(s.Stmt, h)
	case *ast.IfStmt:
		if s.Init != nil {
			w.stmt(s.Init, h)
		}
		w.exprs(h, s.Cond)
		bodyState := h.clone()
		bodyTerm := w.stmts(s.Body.List, bodyState)
		elseState := h.clone()
		elseTerm := false
		if s.Else != nil {
			elseTerm = w.stmt(s.Else, elseState)
		}
		for k := range h {
			delete(h, k)
		}
		if !bodyTerm {
			h.merge(bodyState)
		}
		if !elseTerm {
			h.merge(elseState)
		}
		return bodyTerm && elseTerm
	case *ast.ForStmt:
		if s.Init != nil {
			w.stmt(s.Init, h)
		}
		if s.Cond != nil {
			w.exprs(h, s.Cond)
		}
		body := h.clone()
		w.stmts(s.Body.List, body)
		h.merge(body)
	case *ast.RangeStmt:
		w.exprs(h, s.X)
		body := h.clone()
		w.stmts(s.Body.List, body)
		h.merge(body)
	case *ast.SwitchStmt, *ast.TypeSwitchStmt:
		var body *ast.BlockStmt
		if sw, ok := s.(*ast.SwitchStmt); ok {
			if sw.Init != nil {
				w.stmt(sw.Init, h)
			}
			if sw.Tag != nil {
				w.exprs(h, sw.Tag)
			}
			body = sw.Body
		} else {
			body = s.(*ast.TypeSwitchStmt).Body
		}
		after := h.clone()
		for _, cc := range body.List {
			cs := cc.(*ast.CaseClause)
			w.exprs(h, cs.List...)
			state := h.clone()
			if !w.stmts(cs.Body, state) {
				after.merge(state)
			}
		}
		for k := range h {
			delete(h, k)
		}
		h.merge(after)
	case *ast.SelectStmt:
		hasDefault := false
		for _, cc := range s.Body.List {
			if cc.(*ast.CommClause).Comm == nil {
				hasDefault = true
			}
		}
		if m := h.any(); m != "" && !hasDefault {
			w.pass.Reportf(s.Select, "blocking select while %q is held; add a default case or release the lock first (service lock contract)", m)
		}
		after := h.clone()
		for _, cc := range s.Body.List {
			cs := cc.(*ast.CommClause)
			state := h.clone()
			// The comm op itself is the select's blocking point and was
			// handled above; it is not re-walked (its send/receive must
			// not be re-reported when a default makes it non-blocking).
			if !w.stmts(cs.Body, state) {
				after.merge(state)
			}
		}
		for k := range h {
			delete(h, k)
		}
		h.merge(after)
	default:
		// DeclStmt, IncDecStmt, EmptyStmt, …: nothing blocking, no
		// lock ops of interest beyond their expressions.
		if ds, ok := s.(*ast.DeclStmt); ok {
			ast.Inspect(ds, func(n ast.Node) bool {
				if e, ok := n.(ast.Expr); ok {
					w.exprs(h, e)
					return false
				}
				return true
			})
		}
	}
	return false
}

// lockOp updates h when call is a Lock/RLock/Unlock/RUnlock on a
// sync.Mutex or sync.RWMutex, reporting whether it consumed the call.
func (w *walker) lockOp(call *ast.CallExpr, h held) bool {
	recv, method, ok := lintutil.MethodCall(call)
	if !ok {
		return false
	}
	if !w.isMutex(recv) {
		return false
	}
	key := types.ExprString(recv)
	switch method {
	case "Lock", "RLock":
		h[key]++
	case "Unlock", "RUnlock":
		if h[key] > 0 {
			h[key]--
		}
	case "TryLock", "TryRLock":
		// Cannot tell here whether it succeeded; treat as held so the
		// critical section that follows is still checked.
		h[key]++
	default:
		return false
	}
	return true
}

func (w *walker) isMutex(e ast.Expr) bool {
	t := lintutil.TypeOf(w.pass.TypesInfo, e)
	return lintutil.IsNamed(t, "sync", "Mutex") || lintutil.IsNamed(t, "sync", "RWMutex")
}

// exprs scans expressions for blocking operations performed with a
// lock held: channel receives, sync Wait calls, time.Sleep. Function
// literals are skipped (fresh goroutine/callback state; their bodies
// are analyzed separately by run).
func (w *walker) exprs(h held, list ...ast.Expr) {
	m := h.any()
	if m == "" {
		return
	}
	for _, e := range list {
		if e == nil {
			continue
		}
		ast.Inspect(e, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				return false
			case *ast.UnaryExpr:
				if n.Op.String() == "<-" {
					w.pass.Reportf(n.OpPos, "channel receive while %q is held; release the lock before blocking (service lock contract)", m)
				}
			case *ast.CallExpr:
				recv, method, ok := lintutil.MethodCall(n)
				if !ok {
					return true
				}
				rt := lintutil.TypeOf(w.pass.TypesInfo, recv)
				switch {
				case method == "Wait" && (lintutil.IsNamed(rt, "sync", "WaitGroup") || lintutil.IsNamed(rt, "sync", "Cond")):
					w.pass.Reportf(n.Pos(), "sync %s.Wait while %q is held; release the lock before blocking (service lock contract)", types.ExprString(recv), m)
				case method == "Sleep" && isPkg(w.pass, recv, "time"):
					w.pass.Reportf(n.Pos(), "time.Sleep while %q is held; release the lock before blocking (service lock contract)", m)
				}
			}
			return true
		})
	}
}

// isPkg reports whether e names the package with the given path.
func isPkg(pass *analysis.Pass, e ast.Expr, path string) bool {
	id, ok := e.(*ast.Ident)
	if !ok {
		return false
	}
	pn, ok := pass.TypesInfo.Uses[id].(*types.PkgName)
	return ok && pn.Imported().Path() == path
}
