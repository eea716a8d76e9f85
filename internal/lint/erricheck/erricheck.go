// Package erricheck flags silently discarded errors from Khazana's
// replication-critical APIs.
//
// StorePage, Unlock, Request, and Put are the calls whose failures mean a
// page update, a lock release, or an RPC was lost — exactly the class of
// error §3.5 of the paper says must be retried or surfaced, never
// dropped. The analyzer reports assignments that discard such an error
// into the blank identifier (`_ = h.StorePage(...)`, `_, _ =
// tr.Request(...)`) and bare call statements that ignore the results
// entirely, unless the site carries an explicit justification:
//
//	//khazana:ignore-err <reason>
//
// on the same line or the line above. The annotation requires a reason;
// an empty one is itself reported.
package erricheck

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"khazana/internal/lint/analysis"
)

// Analyzer is the erricheck check.
var Analyzer = &analysis.Analyzer{
	Name: "erricheck",
	Doc:  "check for discarded errors from Khazana's replication-critical APIs (StorePage, Unlock, Request, Put)",
	Run:  run,
}

// APINames are the checked method/function names.
var APINames = map[string]bool{
	"StorePage": true,
	"Unlock":    true,
	"Request":   true,
	"Put":       true,
}

// ModulePrefix restricts the check to APIs declared in this module; a
// stdlib Put or Request is someone else's contract.
const ModulePrefix = "khazana"

// Directive is the annotation that suppresses a finding, followed by a
// required reason.
const Directive = "//khazana:ignore-err"

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				checkAssign(pass, n)
			case *ast.ExprStmt:
				// The call's arguments are walked too: a function literal
				// among them has statements of its own.
				if call, ok := n.X.(*ast.CallExpr); ok {
					if fn := checkedAPI(pass, call); fn != nil && callReturnsError(pass, call) {
						report(pass, call.Pos(), fn)
					}
				}
			}
			return true
		})
	}
	return nil
}

// checkAssign reports error results of checked APIs assigned to the blank
// identifier.
func checkAssign(pass *analysis.Pass, assign *ast.AssignStmt) {
	if len(assign.Rhs) == 1 && len(assign.Lhs) > 1 {
		// Tuple assignment: x, _ := call().
		call, ok := assign.Rhs[0].(*ast.CallExpr)
		if !ok {
			return
		}
		fn := checkedAPI(pass, call)
		if fn == nil {
			return
		}
		tuple, ok := pass.TypeOf(call).(*types.Tuple)
		if !ok || tuple.Len() != len(assign.Lhs) {
			return
		}
		for i, lhs := range assign.Lhs {
			if isBlank(lhs) && analysis.IsErrorType(tuple.At(i).Type()) {
				report(pass, assign.Pos(), fn)
				return
			}
		}
		return
	}
	for i, rhs := range assign.Rhs {
		if i >= len(assign.Lhs) || !isBlank(assign.Lhs[i]) {
			continue
		}
		call, ok := rhs.(*ast.CallExpr)
		if !ok {
			continue
		}
		fn := checkedAPI(pass, call)
		if fn != nil && analysis.IsErrorType(pass.TypeOf(call)) {
			report(pass, assign.Pos(), fn)
		}
	}
}

func report(pass *analysis.Pass, pos token.Pos, fn *types.Func) {
	if pass.Excused(Directive, pos) {
		return
	}
	pass.Reportf(pos, "error from %s.%s is discarded: propagate, log, or count it, or annotate with %s <reason>",
		fn.Pkg().Path(), fn.Name(), Directive)
}

// checkedAPI resolves call to a checked Khazana API, or nil.
func checkedAPI(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	fn := analysis.MethodCall(pass.TypesInfo, call)
	if fn == nil || !APINames[fn.Name()] || fn.Pkg() == nil {
		return nil
	}
	path := fn.Pkg().Path()
	if path != ModulePrefix && !strings.HasPrefix(path, ModulePrefix+"/") {
		return nil
	}
	return fn
}

func callReturnsError(pass *analysis.Pass, call *ast.CallExpr) bool {
	switch t := pass.TypeOf(call).(type) {
	case *types.Tuple:
		for i := 0; i < t.Len(); i++ {
			if analysis.IsErrorType(t.At(i).Type()) {
				return true
			}
		}
		return false
	default:
		return analysis.IsErrorType(t)
	}
}

func isBlank(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "_"
}
