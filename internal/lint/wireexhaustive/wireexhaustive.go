// Package wireexhaustive checks that type switches over the wire.Msg
// interface stay in sync with the message catalog.
//
// Khazana grows its protocol by appending message kinds (the batched
// lock/fetch pipeline added four at once), and every Handle-style switch
// that routes wire.Msg values silently ignores kinds added after it was
// written. The analyzer requires each such switch to either name every
// message kind declared in the wire package, or to carry a default case
// annotated with an explicit routing justification:
//
//	//khazana:wire-default <reason>
//
// on the default's line or the line above. The annotation requires a
// reason; an empty one is itself reported. A switch that covers the full
// catalog needs no default — and will start failing the build of this
// check the day a new kind lands, which is the point.
package wireexhaustive

import (
	"go/ast"
	"go/types"
	"sort"
	"strconv"
	"strings"

	"khazana/internal/lint/analysis"
)

// Analyzer is the wireexhaustive check.
var Analyzer = &analysis.Analyzer{
	Name: "wireexhaustive",
	Doc:  "check that type switches over wire.Msg cover every message kind or carry an annotated default",
	Run:  run,
}

// MsgPath is the import path of the wire package whose Msg interface is
// guarded.
const MsgPath = "khazana/internal/wire"

// MsgName is the guarded interface's name.
const MsgName = "Msg"

// Directive is the annotation that justifies a default case, followed by
// a required reason.
const Directive = "//khazana:wire-default"

// maxListed bounds how many missing kinds a diagnostic spells out.
const maxListed = 6

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			if sw, ok := n.(*ast.TypeSwitchStmt); ok {
				checkSwitch(pass, sw)
			}
			return true
		})
	}
	return nil
}

// checkSwitch applies the exhaustiveness rule to one type switch.
func checkSwitch(pass *analysis.Pass, sw *ast.TypeSwitchStmt) {
	iface := switchedMsg(pass, sw)
	if iface == nil {
		return
	}
	kinds := msgKinds(iface)
	if len(kinds) == 0 {
		return
	}
	covered := make(map[string]bool)
	var deflt *ast.CaseClause
	for _, stmt := range sw.Body.List {
		cc, ok := stmt.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			deflt = cc
			continue
		}
		for _, expr := range cc.List {
			if name := caseKind(pass, expr); name != "" {
				covered[name] = true
			}
		}
	}
	var missing []string
	for _, k := range kinds {
		if !covered[k] {
			missing = append(missing, k)
		}
	}
	if len(missing) == 0 {
		return
	}
	if deflt == nil {
		pass.Reportf(sw.Pos(), "type switch over %s.%s covers %d of %d message kinds and has no default: handle %s or add a default annotated with %s <reason>",
			MsgPath, MsgName, len(kinds)-len(missing), len(kinds), listKinds(missing), Directive)
		return
	}
	if pass.Excused(Directive, deflt.Pos()) {
		return
	}
	pass.Reportf(deflt.Pos(), "default case of a %s.%s type switch missing %s must be annotated with %s <reason>",
		MsgPath, MsgName, listKinds(missing), Directive)
}

// switchedMsg returns the wire.Msg interface when sw switches over it,
// else nil.
func switchedMsg(pass *analysis.Pass, sw *ast.TypeSwitchStmt) *types.Interface {
	var x ast.Expr
	switch assign := sw.Assign.(type) {
	case *ast.AssignStmt:
		if len(assign.Rhs) != 1 {
			return nil
		}
		ta, ok := assign.Rhs[0].(*ast.TypeAssertExpr)
		if !ok {
			return nil
		}
		x = ta.X
	case *ast.ExprStmt:
		ta, ok := assign.X.(*ast.TypeAssertExpr)
		if !ok {
			return nil
		}
		x = ta.X
	default:
		return nil
	}
	named, ok := pass.TypeOf(x).(*types.Named)
	if !ok {
		return nil
	}
	obj := named.Obj()
	if obj.Name() != MsgName || obj.Pkg() == nil || obj.Pkg().Path() != MsgPath {
		return nil
	}
	iface, _ := named.Underlying().(*types.Interface)
	return iface
}

// msgKinds lists the names of every type in the wire package whose
// pointer implements Msg, sorted for stable diagnostics.
func msgKinds(iface *types.Interface) []string {
	if iface.NumMethods() == 0 {
		return nil
	}
	pkg := iface.Method(0).Pkg()
	if pkg == nil {
		return nil
	}
	var kinds []string
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		t := tn.Type()
		if types.IsInterface(t) {
			continue
		}
		if types.Implements(types.NewPointer(t), iface) {
			kinds = append(kinds, name)
		}
	}
	sort.Strings(kinds)
	return kinds
}

// caseKind resolves one case expression to a wire message kind name, or
// "" when it names something else (nil, a foreign type, an interface).
func caseKind(pass *analysis.Pass, expr ast.Expr) string {
	ptr, ok := pass.TypeOf(expr).(*types.Pointer)
	if !ok {
		return ""
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return ""
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != MsgPath {
		return ""
	}
	return obj.Name()
}

// listKinds renders missing kinds for a diagnostic, truncating long lists.
func listKinds(missing []string) string {
	shown := missing
	var suffix string
	if len(shown) > maxListed {
		suffix = " and " + strconv.Itoa(len(shown)-maxListed) + " more"
		shown = shown[:maxListed]
	}
	return strings.Join(shown, ", ") + suffix
}
