// Package deferunlock flags sync.Mutex/sync.RWMutex acquisitions that are
// not reliably released on every return path.
//
// The robust idiom is Lock followed immediately by defer Unlock. When a
// function instead unlocks explicitly, every return statement reachable
// after the Lock must be preceded by a matching Unlock, or an early return
// leaks the mutex and the next acquirer deadlocks. The check is
// intra-procedural and positional: for a Lock at position L with no
// matching defer, each return after L must have an explicit matching
// Unlock between L and the return.
package deferunlock

import (
	"go/ast"
	"go/token"
	"go/types"

	"khazana/internal/lint/analysis"
)

// Analyzer is the deferunlock check.
var Analyzer = &analysis.Analyzer{
	Name: "deferunlock",
	Doc:  "check that mutex Lock calls are released on every return path",
	Run:  run,
}

// lockKind distinguishes the write-lock pair (Lock/Unlock) from the
// read-lock pair (RLock/RUnlock).
type lockKind int

const (
	writeLock lockKind = iota
	readLock
)

func (k lockKind) lockName() string {
	if k == readLock {
		return "RLock"
	}
	return "Lock"
}

func (k lockKind) unlockName() string {
	if k == readLock {
		return "RUnlock"
	}
	return "Unlock"
}

// event is one Lock/Unlock/defer-Unlock/return occurrence in a function.
type events struct {
	locks   []lockEvent
	unlocks []lockEvent
	defers  map[string]bool // key -> deferred unlock present
	returns []token.Pos
}

type lockEvent struct {
	key  string // printed receiver expression + kind
	expr string // printed receiver expression, for messages
	kind lockKind
	pos  token.Pos
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkFunc(pass, fn.Body)
		}
	}
	return nil
}

// checkFunc analyzes one function body, recursing into nested function
// literals as independent scopes.
func checkFunc(pass *analysis.Pass, body *ast.BlockStmt) {
	ev := &events{defers: make(map[string]bool)}
	collect(pass, body, ev, false)
	report(pass, ev)
}

// collect gathers lock events in source order. Nested function literals
// are separate lock scopes: a closure may run on another goroutine or
// after the function returns, so its locks and unlocks must balance on
// their own.
func collect(pass *analysis.Pass, n ast.Node, ev *events, inDefer bool) {
	ast.Inspect(n, func(node ast.Node) bool {
		switch node := node.(type) {
		case *ast.FuncLit:
			checkFunc(pass, node.Body)
			return false
		case *ast.DeferStmt:
			if key, e, ok := mutexCall(pass, node.Call); ok {
				if !e.isLock {
					ev.defers[key] = true
				}
				return false
			}
			// defer of something else (e.g. a closure that unlocks):
			// inspect the call's children; a closure argument is handled
			// by the FuncLit case above as its own scope, except that an
			// unlock inside a directly deferred closure does release on
			// all paths — treat `defer func() { ... mu.Unlock() ... }()`
			// as a deferred unlock for each mutex it unlocks.
			if lit, ok := node.Call.Fun.(*ast.FuncLit); ok {
				markDeferredClosureUnlocks(pass, lit, ev)
				return false
			}
			return true
		case *ast.ReturnStmt:
			ev.returns = append(ev.returns, node.Pos())
		case *ast.CallExpr:
			if key, e, ok := mutexCall(pass, node); ok {
				if e.isLock {
					ev.locks = append(ev.locks, lockEvent{key: key, expr: e.expr, kind: e.kind, pos: node.Pos()})
				} else {
					ev.unlocks = append(ev.unlocks, lockEvent{key: key, expr: e.expr, kind: e.kind, pos: node.Pos()})
				}
				return false
			}
		}
		return true
	})
}

// markDeferredClosureUnlocks records unlock calls made directly inside a
// deferred closure, which run on every exit path just like a plain defer.
func markDeferredClosureUnlocks(pass *analysis.Pass, lit *ast.FuncLit, ev *events) {
	lockedInside := make(map[string]bool)
	ast.Inspect(lit.Body, func(node ast.Node) bool {
		if inner, ok := node.(*ast.FuncLit); ok && inner != lit {
			checkFunc(pass, inner.Body)
			return false
		}
		if call, ok := node.(*ast.CallExpr); ok {
			if key, e, ok := mutexCall(pass, call); ok {
				if e.isLock {
					// The closure takes this mutex itself; its unlock
					// pairs with that, not with a lock in the enclosing
					// function.
					lockedInside[key] = true
				} else if !lockedInside[key] {
					ev.defers[key] = true
				}
				return false
			}
		}
		return true
	})
}

type mutexCallInfo struct {
	expr   string
	kind   lockKind
	isLock bool
}

// mutexCall reports whether call is a Lock/RLock/Unlock/RUnlock method
// call on a sync.Mutex or sync.RWMutex value, returning a key identifying
// the receiver expression and kind.
func mutexCall(pass *analysis.Pass, call *ast.CallExpr) (string, mutexCallInfo, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", mutexCallInfo{}, false
	}
	var kind lockKind
	var isLock bool
	switch sel.Sel.Name {
	case "Lock":
		kind, isLock = writeLock, true
	case "Unlock":
		kind, isLock = writeLock, false
	case "RLock":
		kind, isLock = readLock, true
	case "RUnlock":
		kind, isLock = readLock, false
	default:
		return "", mutexCallInfo{}, false
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return "", mutexCallInfo{}, false
	}
	recv := analysis.ExprString(pass.Fset, sel.X)
	key := recv + "#" + kind.lockName()
	return key, mutexCallInfo{expr: recv, kind: kind, isLock: isLock}, true
}

// report checks every collected lock against the defers, unlocks, and
// returns of its function.
func report(pass *analysis.Pass, ev *events) {
	for _, l := range ev.locks {
		if ev.defers[l.key] {
			continue
		}
		// Explicit-unlock style: every return after the lock needs an
		// unlock between the lock and the return.
		covered := func(ret token.Pos) bool {
			for _, u := range ev.unlocks {
				if u.key == l.key && u.pos > l.pos && u.pos < ret {
					return true
				}
			}
			return false
		}
		leaked := false
		for _, ret := range ev.returns {
			if ret > l.pos && !covered(ret) {
				pass.Reportf(l.pos,
					"%s.%s() is not released on the return path at line %d: add defer %s.%s() or unlock before returning",
					l.expr, l.kind.lockName(), pass.Fset.Position(ret).Line, l.expr, l.kind.unlockName())
				leaked = true
				break
			}
		}
		if leaked {
			continue
		}
		// Fall-off-the-end path: if the function body can end without a
		// return, the lock still needs some unlock after it.
		anyUnlockAfter := false
		for _, u := range ev.unlocks {
			if u.key == l.key && u.pos > l.pos {
				anyUnlockAfter = true
				break
			}
		}
		if !anyUnlockAfter && len(ev.returns) == 0 {
			pass.Reportf(l.pos, "%s.%s() is never released: add defer %s.%s()",
				l.expr, l.kind.lockName(), l.expr, l.kind.unlockName())
		}
	}
}
