// Package lockorder flags acquisitions of core.Node's mutexes that
// violate the canonical order, and re-entrant acquisitions of the same
// mutex.
//
// Any function that ever holds two of core.Node's ordered mutexes
// concurrently must acquire them in the canonical order
//
//	chunkMu → appMu
//
// or two call paths taking them in opposite orders can deadlock the
// daemon. The analysis is intra-procedural and syntactic: within each
// function body it tracks which guarded mutexes are held (a deferred
// unlock keeps the mutex held to function end) and reports any Lock call
// that re-enters a held mutex or acquires one that precedes a held one in
// the canonical order.
package lockorder

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"khazana/internal/lint/analysis"
)

// Analyzer is the lockorder check. Run enforces the canonical order of
// core.Node's mutexes within each function; RunProgram detects
// lock-acquisition cycles across call boundaries program-wide (see
// program.go).
var Analyzer = &analysis.Analyzer{
	Name:       "lockorder",
	Doc:        "check mutex acquisition order: canonical core.Node order per function, acquisition-graph cycles whole-program",
	Run:        run,
	RunProgram: runProgram,
}

// GuardedType names the struct whose mutex fields are ordered, as
// pkgpath.TypeName.
const GuardedType = "khazana/internal/core.Node"

// Order is the canonical acquisition order of the guarded mutex fields.
var Order = []string{"chunkMu", "appMu"}

func rank(field string) int {
	for i, f := range Order {
		if f == field {
			return i
		}
	}
	return -1
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Body != nil {
				v := &visitor{pass: pass, held: make(map[string]token.Pos)}
				v.stmts(fn.Body.List)
			}
		}
	}
	return nil
}

// visitor tracks the guarded mutexes held along the current path.
type visitor struct {
	pass *analysis.Pass
	held map[string]token.Pos
}

func (v *visitor) clone() *visitor {
	held := make(map[string]token.Pos, len(v.held))
	for k, p := range v.held {
		held[k] = p
	}
	return &visitor{pass: v.pass, held: held}
}

func (v *visitor) stmts(list []ast.Stmt) {
	for _, s := range list {
		v.stmt(s)
	}
}

func (v *visitor) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if field, isLock, ok := v.mutexOp(call); ok {
				if isLock {
					v.lock(field, call)
				} else {
					delete(v.held, field)
				}
				return
			}
		}
		v.scanNested(s.X)
	case *ast.DeferStmt:
		// A deferred unlock releases at function end: the mutex stays
		// held for everything that follows, which is exactly how the
		// ordering must treat it. A deferred lock is nonsense; ignore.
		if _, _, ok := v.mutexOp(s.Call); ok {
			return
		}
		v.scanNested(s.Call)
	case *ast.BlockStmt:
		v.stmts(s.List)
	case *ast.IfStmt:
		if s.Init != nil {
			v.stmt(s.Init)
		}
		v.scanNested(s.Cond)
		v.clone().stmts(s.Body.List)
		if s.Else != nil {
			v.clone().stmt(s.Else)
		}
	case *ast.ForStmt:
		if s.Init != nil {
			v.stmt(s.Init)
		}
		v.clone().stmts(s.Body.List)
	case *ast.RangeStmt:
		v.scanNested(s.X)
		v.clone().stmts(s.Body.List)
	case *ast.SwitchStmt:
		if s.Init != nil {
			v.stmt(s.Init)
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				v.clone().stmts(cc.Body)
			}
		}
	case *ast.TypeSwitchStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				v.clone().stmts(cc.Body)
			}
		}
	case *ast.SelectStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				v.clone().stmts(cc.Body)
			}
		}
	case *ast.LabeledStmt:
		v.stmt(s.Stmt)
	case *ast.GoStmt:
		// The goroutine runs concurrently; its body starts with nothing
		// held.
		v.scanNested(s.Call)
	default:
		ast.Inspect(s, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok {
				nested := &visitor{pass: v.pass, held: make(map[string]token.Pos)}
				nested.stmts(lit.Body.List)
				return false
			}
			return true
		})
	}
}

// scanNested analyzes function literals inside an expression; a closure
// runs later, so it starts with an empty held set.
func (v *visitor) scanNested(e ast.Expr) {
	ast.Inspect(e, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			nested := &visitor{pass: v.pass, held: make(map[string]token.Pos)}
			nested.stmts(lit.Body.List)
			return false
		}
		return true
	})
}

func (v *visitor) lock(field string, call *ast.CallExpr) {
	if _, ok := v.held[field]; ok {
		v.pass.Reportf(call.Pos(), "re-entrant acquisition of %s.%s (already held; sync.Mutex is not reentrant)", GuardedType, field)
		return
	}
	r := rank(field)
	for heldField := range v.held {
		if rank(heldField) > r {
			v.pass.Reportf(call.Pos(),
				"acquires %s while holding %s: canonical order for %s is %s",
				field, heldField, GuardedType, strings.Join(Order, " → "))
		}
	}
	v.held[field] = call.Pos()
}

// mutexOp reports whether call is recv.<field>.Lock() or
// recv.<field>.Unlock() on one of the guarded fields of the guarded
// struct, returning the field name and the operation.
func (v *visitor) mutexOp(call *ast.CallExpr) (field string, isLock, ok bool) {
	sel, okSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !okSel {
		return "", false, false
	}
	switch sel.Sel.Name {
	case "Lock":
		isLock = true
	case "Unlock":
	default:
		return "", false, false
	}
	inner, okInner := ast.Unparen(sel.X).(*ast.SelectorExpr)
	if !okInner {
		return "", false, false
	}
	selection, okSelInfo := v.pass.TypesInfo.Selections[inner]
	if !okSelInfo || selection.Kind() != types.FieldVal {
		return "", false, false
	}
	fieldObj := selection.Obj()
	if rank(fieldObj.Name()) < 0 {
		return "", false, false
	}
	recv := selection.Recv()
	if ptr, isPtr := recv.(*types.Pointer); isPtr {
		recv = ptr.Elem()
	}
	named, okNamed := recv.(*types.Named)
	if !okNamed {
		return "", false, false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path()+"."+obj.Name() != GuardedType {
		return "", false, false
	}
	return fieldObj.Name(), isLock, true
}
