// Package lockset walks function bodies tracking which sync.Mutex /
// sync.RWMutex struct fields are held along each path, delivering events
// (acquisitions, calls, channel operations) to analyzer callbacks with
// the held set at that point.
//
// The tracking is path-sensitive and syntactic: the held set is cloned
// per branch, a deferred unlock keeps the mutex held to function end, and
// nested function literals are skipped entirely — a closure runs later,
// elsewhere, or on another goroutine, so events inside it do not happen
// under the enclosing function's locks (analyzers walk closure bodies
// separately if they care). Arguments of a `go` statement are evaluated synchronously
// and are scanned; the spawned call itself is not an event.
//
// Only mutexes that are named struct fields are tracked. A local mutex
// variable has no stable cross-function identity, so it cannot
// participate in a whole-program ordering anyway.
package lockset

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Key identifies a mutex field: the defining struct as "pkgpath.Type"
// plus the field name. Stable across the source and export-data views of
// a package.
type Key struct {
	Type  string
	Field string
}

func (k Key) String() string { return k.Type + "." + k.Field }

// Held maps the locks held on the current path to their acquisition
// positions.
type Held map[Key]token.Pos

// Clone returns an independent copy.
func (h Held) Clone() Held {
	out := make(Held, len(h))
	for k, p := range h {
		out[k] = p
	}
	return out
}

// Callbacks receive walk events. Any callback may be nil.
type Callbacks struct {
	// Acquire fires at a Lock or RLock of a tracked mutex field, before
	// the key joins the held set. read reports RLock.
	Acquire func(k Key, read bool, pos token.Pos, held Held)
	// Call fires for every call expression evaluated in the function's
	// own execution context (mutex operations excluded).
	Call func(call *ast.CallExpr, held Held)
	// ChanOp fires for blocking channel operations: sends, receives,
	// range over a channel, and selects without a default clause. kind is
	// a short human-readable description.
	ChanOp func(kind string, pos token.Pos, held Held)
}

// Walk traverses body delivering events to cb.
func Walk(info *types.Info, body *ast.BlockStmt, cb Callbacks) {
	w := &walker{info: info, cb: cb, held: make(Held)}
	w.stmts(body.List)
}

type walker struct {
	info *types.Info
	cb   Callbacks
	held Held
}

func (w *walker) clone() *walker {
	return &walker{info: w.info, cb: w.cb, held: w.held.Clone()}
}

func (w *walker) stmts(list []ast.Stmt) {
	for _, s := range list {
		w.stmt(s)
	}
}

func (w *walker) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		w.expr(s.X)
	case *ast.SendStmt:
		w.expr(s.Chan)
		w.expr(s.Value)
		if w.cb.ChanOp != nil {
			w.cb.ChanOp("channel send", s.Arrow, w.held)
		}
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			w.expr(e)
		}
		for _, e := range s.Lhs {
			w.expr(e)
		}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, e := range vs.Values {
						w.expr(e)
					}
				}
			}
		}
	case *ast.IncDecStmt:
		w.expr(s.X)
	case *ast.DeferStmt:
		// A deferred unlock releases at function end: the mutex stays held
		// for everything that follows. A deferred lock is nonsense;
		// ignore. Other deferred calls are treated as running with the
		// current held set (conservative: defers stacked under the unlock
		// defer run before it, i.e. with the lock still held).
		if _, _, _, ok := w.mutexOp(s.Call); ok {
			return
		}
		w.expr(s.Call)
	case *ast.GoStmt:
		// The arguments are evaluated now; the call runs on a new
		// goroutine with nothing held, so the call itself is not an event.
		for _, arg := range s.Call.Args {
			w.expr(arg)
		}
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			w.expr(e)
		}
	case *ast.BlockStmt:
		w.stmts(s.List)
	case *ast.IfStmt:
		if s.Init != nil {
			w.stmt(s.Init)
		}
		w.expr(s.Cond)
		w.clone().stmts(s.Body.List)
		if s.Else != nil {
			w.clone().stmt(s.Else)
		}
	case *ast.ForStmt:
		if s.Init != nil {
			w.stmt(s.Init)
		}
		if s.Cond != nil {
			w.expr(s.Cond)
		}
		w.clone().stmts(s.Body.List)
	case *ast.RangeStmt:
		w.expr(s.X)
		if t := w.info.TypeOf(s.X); t != nil {
			if _, isChan := t.Underlying().(*types.Chan); isChan && w.cb.ChanOp != nil {
				w.cb.ChanOp("range over channel", s.For, w.held)
			}
		}
		w.clone().stmts(s.Body.List)
	case *ast.SwitchStmt:
		if s.Init != nil {
			w.stmt(s.Init)
		}
		if s.Tag != nil {
			w.expr(s.Tag)
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				w.clone().stmts(cc.Body)
			}
		}
	case *ast.TypeSwitchStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				w.clone().stmts(cc.Body)
			}
		}
	case *ast.SelectStmt:
		// A select with a default clause never blocks; one without
		// blocks until a case is ready.
		hasDefault := false
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
				hasDefault = true
			}
		}
		if !hasDefault && w.cb.ChanOp != nil {
			w.cb.ChanOp("select", s.Select, w.held)
		}
		// The comm statements' channel operations are the select's own
		// blocking points (already reported above); only walk the clause
		// bodies.
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				w.clone().stmts(cc.Body)
			}
		}
	case *ast.LabeledStmt:
		w.stmt(s.Stmt)
	}
}

// expr scans an expression for events: mutex operations mutate the held
// set, other calls and channel receives are reported. Function literals
// are skipped.
func (w *walker) expr(e ast.Expr) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			if key, isLock, read, ok := w.mutexOp(n); ok {
				if isLock {
					if w.cb.Acquire != nil {
						w.cb.Acquire(key, read, n.Lparen, w.held)
					}
					w.held[key] = n.Lparen
				} else {
					delete(w.held, key)
				}
				return false
			}
			if w.cb.Call != nil {
				w.cb.Call(n, w.held)
			}
			return true
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && w.cb.ChanOp != nil {
				w.cb.ChanOp("channel receive", n.OpPos, w.held)
			}
			return true
		}
		return true
	})
}

// mutexOp reports whether call is recv.<field>.Lock/RLock/Unlock/RUnlock
// on a sync.Mutex or sync.RWMutex struct field, returning the field key
// and the operation.
func (w *walker) mutexOp(call *ast.CallExpr) (key Key, isLock, read, ok bool) {
	sel, okSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !okSel {
		return Key{}, false, false, false
	}
	switch sel.Sel.Name {
	case "Lock":
		isLock = true
	case "RLock":
		isLock, read = true, true
	case "Unlock":
	case "RUnlock":
		read = true
	default:
		return Key{}, false, false, false
	}
	inner, okInner := ast.Unparen(sel.X).(*ast.SelectorExpr)
	if !okInner {
		return Key{}, false, false, false
	}
	selection, okSelInfo := w.info.Selections[inner]
	if !okSelInfo || selection.Kind() != types.FieldVal {
		return Key{}, false, false, false
	}
	fieldObj := selection.Obj()
	if !isMutexType(fieldObj.Type()) {
		return Key{}, false, false, false
	}
	recv := selection.Recv()
	if ptr, isPtr := recv.(*types.Pointer); isPtr {
		recv = ptr.Elem()
	}
	named, okNamed := recv.(*types.Named)
	if !okNamed {
		return Key{}, false, false, false
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return Key{}, false, false, false
	}
	return Key{Type: obj.Pkg().Path() + "." + obj.Name(), Field: fieldObj.Name()}, isLock, read, true
}

// isMutexType reports whether t is sync.Mutex or sync.RWMutex.
func isMutexType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}
