// Package framerelease flags page-frame acquisitions that are not
// reliably released on every return path.
//
// Every call returning a *frame.Frame confers a release obligation on the
// caller (the frame package's ownership contract): the frame must reach
// f.Release() — or f.Exclusive(), which consumes the receiver — on every
// path, be returned to the caller (transferring the obligation), or be
// released by a defer. A frame that escapes into longer-lived storage (a
// struct field, map, or slice) is a deliberate ownership transfer and must
// be annotated at the acquisition site:
//
//	//khazana:frame-owner <reason>
//
// on the same line or the line above. The annotation requires a reason; an
// empty one is itself reported. A leaked frame only costs a pool miss, but
// a steady leak on a hot path defeats the zero-copy pipeline's pooling, so
// the check keeps the obligation visible.
//
// The per-function check is positional, mirroring deferunlock: for an
// acquisition at position L with no matching defer, each return after L
// must either mention the variable (transfer) or have a release between L
// and the return. Returns inside a guard that proves the acquisition
// yielded no frame — `if !ok`, `if f == nil`, `if err != nil` — are
// exempt, as are returns after an `if ok { ... return }` block that
// consumed the taken branch. The frame package itself is exempt — it
// implements the refcount, it does not consume it.
//
// On top of that, ownership transfers across calls: the whole-program
// pass summarizes every function's *frame.Frame parameters bottom-up over
// the call graph as consumed (released on every path, never returned) or
// borrowed. Passing an owned frame to a call whose every resolved callee
// consumes that parameter discharges the obligation like a release; a
// frame handed only to borrowing callees stays the caller's problem, and
// the diagnostic names the borrowing callee so the leak is traceable
// through the helper.
//
// One hand-off is summarized by contract rather than inference: the
// version chain. (*frame.Chain).Publish takes ownership of the frame it
// stores — the chain releases the entry when it retires under reclaim —
// so publishing an owned frame discharges the obligation even though
// Publish's body only stores the pointer. Pinning a version with At or
// Latest is the mirror image: the returned reference is a fresh
// acquisition the caller must release.
package framerelease

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"

	"khazana/internal/lint/analysis"
	"khazana/internal/lint/callgraph"
	"khazana/internal/lint/loader"
)

// Analyzer is the framerelease check.
var Analyzer = &analysis.Analyzer{
	Name:       "framerelease",
	Doc:        "check that acquired *frame.Frame values are released on every return path, tracking ownership across calls",
	RunProgram: runProgram,
}

// FramePkg is the package whose *Frame values carry release obligations.
const FramePkg = "khazana/internal/frame"

// Directive is the annotation that transfers ownership out of the
// function's hands, followed by a required reason.
const Directive = "//khazana:frame-owner"

func runProgram(pp *analysis.ProgramPass) error {
	g := pp.Program.Graph
	c := &checker{g: g, consumes: consumeSummaries(g)}
	for _, pkg := range pp.Program.Packages {
		if pkg.Types != nil && pkg.Types.Path() == FramePkg {
			continue
		}
		c.pkg = pkg
		c.pass = &analysis.Pass{
			Analyzer:  pp.Analyzer,
			Fset:      pp.Program.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
			Report:    pp.Report,
		}
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				if fn, ok := decl.(*ast.FuncDecl); ok && fn.Body != nil {
					c.checkFunc(fn.Body)
				}
			}
		}
	}
	return nil
}

// checker carries the per-package pass plus the whole-program context:
// the call graph and the parameter-consumption summaries.
type checker struct {
	pass     *analysis.Pass
	pkg      *loader.Package
	g        *callgraph.Graph
	consumes map[*callgraph.Node][]bool
	quiet    bool // summary phase: collect events, report nothing
}

// events gathers the frame-relevant occurrences of one function body.
type events struct {
	acquisitions []acquisition
	releases     []releaseEvent
	defers       map[string]bool // var name -> deferred release present
	returns      []*ast.ReturnStmt
	guards       []guard
	passedTo     []passEvent
}

type acquisition struct {
	name string
	ok   string // comma-ok variable for f, ok := ... acquisitions
	errv string // error variable for f, err := ... acquisitions
	pos  token.Pos
}

// guard is the body extent of an if statement whose condition proves the
// acquisition yielded no frame — `!ok`, `f == nil`, or `err != nil` —
// so returns inside it carry no release obligation. guardTakenOK is the
// inverse shape: `if ok { ... return }` with a terminating body, after
// which the frame provably was not acquired; start is the body's end.
type guard struct {
	kind       guardKind
	name       string
	start, end token.Pos
}

type guardKind int

const (
	guardNotOK   guardKind = iota // if !ok      — name is the comma-ok bool
	guardIsNil                    // if f == nil — name is the frame variable
	guardNonNil                   // if err != nil — name is the error variable
	guardTakenOK                  // if ok { ...; return } — returns after the body are ok-false paths
)

type releaseEvent struct {
	name string
	pos  token.Pos
}

// passEvent records an owned frame handed to a resolved callee that does
// not consume it; the obligation stays with the caller.
type passEvent struct {
	name   string
	pos    token.Pos
	callee *callgraph.Node
}

// checkFunc analyzes one function body, recursing into nested function
// literals as independent ownership scopes.
func (c *checker) checkFunc(body *ast.BlockStmt) {
	ev := &events{defers: make(map[string]bool)}
	c.collect(body, ev)
	if !c.quiet {
		c.report(ev)
	}
}

// collect gathers events in source order. Nested function literals are
// separate scopes: a closure may run on another goroutine or after the
// function returns, so its acquisitions must balance on their own.
func (c *checker) collect(n ast.Node, ev *events) {
	pass := c.pass
	ast.Inspect(n, func(node ast.Node) bool {
		switch node := node.(type) {
		case *ast.FuncLit:
			c.checkFunc(node.Body)
			return false
		case *ast.DeferStmt:
			if name, ok := releaseCall(pass, node.Call); ok {
				ev.defers[name] = true
				return false
			}
			// A directly deferred closure runs on every exit path, so
			// releases inside it count as defers for their variables.
			if lit, ok := node.Call.Fun.(*ast.FuncLit); ok {
				c.markDeferredClosureReleases(lit, ev)
				return false
			}
			return true
		case *ast.ReturnStmt:
			ev.returns = append(ev.returns, node)
		case *ast.IfStmt:
			if g, ok := classifyGuard(node); ok {
				ev.guards = append(ev.guards, g)
			}
		case *ast.AssignStmt:
			collectAcquisitions(pass, node, ev)
		case *ast.CallExpr:
			if name, ok := releaseCall(pass, node); ok {
				ev.releases = append(ev.releases, releaseEvent{name: name, pos: node.Pos()})
				return false
			}
			if names := publishConsumes(pass, node); len(names) > 0 {
				for _, nm := range names {
					ev.releases = append(ev.releases, releaseEvent{name: nm, pos: node.Pos()})
				}
				return true
			}
			c.recordPass(node, ev)
		}
		return true
	})
}

// recordPass classifies frame-typed identifier arguments of a call: if
// every resolved callee consumes the parameter, the call discharges the
// obligation like a release; otherwise the frame was merely lent and the
// first borrowing callee is remembered for the diagnostic.
func (c *checker) recordPass(call *ast.CallExpr, ev *events) {
	var frameArgs []int
	for i, arg := range call.Args {
		if _, ok := identName(arg); !ok {
			continue
		}
		if isFrameType(c.pass.TypeOf(arg)) {
			frameArgs = append(frameArgs, i)
		}
	}
	if len(frameArgs) == 0 {
		return
	}
	callees := c.g.ResolveCall(c.pkg, call)
	if len(callees) == 0 {
		return
	}
	for _, i := range frameArgs {
		name, _ := identName(call.Args[i])
		consumed := true
		for _, callee := range callees {
			s := c.consumes[callee]
			if i >= len(s) || !s[i] {
				consumed = false
				break
			}
		}
		if consumed {
			ev.releases = append(ev.releases, releaseEvent{name: name, pos: call.Pos()})
		} else {
			ev.passedTo = append(ev.passedTo, passEvent{name: name, pos: call.Pos(), callee: callees[0]})
		}
	}
}

// consumeSummaries classifies every function's *frame.Frame parameters as
// consumed (released on every unguarded path, never returned) or
// borrowed, bottom-up over SCCs. A call passing a parameter onward to an
// all-consuming callee counts as a release, so summaries feed each other;
// flags only flip borrow→consume, so the fixpoint terminates. Contract
// summaries the frame package guarantees but inference cannot see are
// seeded first and survive the fixpoint untouched.
func consumeSummaries(g *callgraph.Graph) map[*callgraph.Node][]bool {
	sums := make(map[*callgraph.Node][]bool)
	seedContracts(g, sums)
	c := &checker{g: g, consumes: sums, quiet: true}
	for _, scc := range g.SCCs() {
		for changed := true; changed; {
			changed = false
			for _, node := range scc {
				if c.growConsume(node) {
					changed = true
				}
			}
		}
	}
	return sums
}

// seedContracts records ownership hand-offs the frame package guarantees
// by contract rather than by inferable control flow. (*Chain).Publish
// stores its frame in the version chain and releases it only when the
// entry later retires under reclaim — store-now, release-later is
// invisible to the release-reaches-every-return inference — so its frame
// parameter is consumed by fiat. The chain's read side needs no seed:
// At and Latest return a freshly pinned reference, which is the ordinary
// acquisition obligation on the caller.
func seedContracts(g *callgraph.Graph, sums map[*callgraph.Node][]bool) {
	for _, node := range g.Nodes() {
		fn := node.Func
		if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != FramePkg || fn.Name() != "Publish" {
			continue
		}
		sig, ok := fn.Type().(*types.Signature)
		if !ok || sig.Recv() == nil {
			continue
		}
		ptr, ok := sig.Recv().Type().(*types.Pointer)
		if !ok {
			continue
		}
		named, ok := ptr.Elem().(*types.Named)
		if !ok || named.Obj() == nil || named.Obj().Name() != "Chain" {
			continue
		}
		params := frameParams(node)
		s := make([]bool, len(params))
		for i, p := range params {
			s[i] = p != ""
		}
		sums[node] = s
	}
}

// growConsume recomputes node's parameter summary, reporting whether any
// parameter newly became consumed.
func (c *checker) growConsume(node *callgraph.Node) bool {
	params := frameParams(node)
	prev := c.consumes[node]
	if prev == nil {
		prev = make([]bool, len(params))
		c.consumes[node] = prev
	}
	any := false
	for _, p := range params {
		if p != "" {
			any = true
		}
	}
	if !any {
		return false
	}
	c.pkg = node.Pkg
	c.pass = &analysis.Pass{
		Fset:      c.g.Fset,
		Files:     node.Pkg.Files,
		Pkg:       node.Pkg.Types,
		TypesInfo: node.Pkg.Info,
		Report:    func(analysis.Diagnostic) {},
	}
	ev := &events{defers: make(map[string]bool)}
	c.collect(node.Decl.Body, ev)
	changed := false
	for i, p := range params {
		if p == "" || prev[i] {
			continue
		}
		if consumedParam(ev, p, node.Decl.Body) {
			prev[i] = true
			changed = true
		}
	}
	return changed
}

// frameParams flattens node's parameter list to names, "" for parameters
// that are not *frame.Frame (or are blank/unnamed).
func frameParams(node *callgraph.Node) []string {
	ft := node.Decl.Type
	if ft.Params == nil {
		return nil
	}
	var out []string
	for _, field := range ft.Params.List {
		isFrame := isFrameType(node.Pkg.Info.TypeOf(field.Type))
		if len(field.Names) == 0 {
			out = append(out, "")
			continue
		}
		for _, name := range field.Names {
			if isFrame && name.Name != "_" {
				out = append(out, name.Name)
			} else {
				out = append(out, "")
			}
		}
	}
	return out
}

// consumedParam reports whether the function provably takes ownership of
// its parameter name: some release reaches every return (and the fall-off
// end) except paths proving the frame nil, and the frame never flows back
// out through a return.
func consumedParam(ev *events, name string, body *ast.BlockStmt) bool {
	for _, ret := range ev.returns {
		if mentions(ret, name) {
			return false
		}
	}
	if ev.defers[name] {
		return true
	}
	released := func(at token.Pos) bool {
		for _, r := range ev.releases {
			if r.name == name && r.pos < at {
				return true
			}
		}
		return false
	}
	nilGuarded := func(at token.Pos) bool {
		for _, g := range ev.guards {
			if g.kind == guardIsNil && g.name == name && at > g.start && at < g.end {
				return true
			}
		}
		return false
	}
	n := 0
	for _, ret := range ev.returns {
		if nilGuarded(ret.Pos()) {
			continue
		}
		if !released(ret.Pos()) {
			return false
		}
		n++
	}
	// A body that can fall off the end needs a release on that path too.
	terminated := false
	if len(body.List) > 0 {
		_, terminated = body.List[len(body.List)-1].(*ast.ReturnStmt)
	}
	if !terminated {
		if !released(body.End()) {
			return false
		}
		n++
	}
	return n > 0
}

// collectAcquisitions records frame-typed variables bound by an
// assignment whose right-hand side is a call. Only plain identifiers are
// tracked; a frame stored straight into a field, map, or slice element is
// an ownership transfer the annotation convention covers.
func collectAcquisitions(pass *analysis.Pass, assign *ast.AssignStmt, ev *events) {
	if len(assign.Rhs) == 1 && len(assign.Lhs) > 1 {
		// Tuple form: f, ok := store.Get(page).
		call, ok := ast.Unparen(assign.Rhs[0]).(*ast.CallExpr)
		if !ok {
			return
		}
		tuple, ok := pass.TypeOf(call).(*types.Tuple)
		if !ok || tuple.Len() != len(assign.Lhs) {
			return
		}
		okName, errName := "", ""
		if len(assign.Lhs) == 2 {
			second := tuple.At(1).Type()
			if t, isBool := second.(*types.Basic); isBool && t.Kind() == types.Bool {
				okName, _ = identName(assign.Lhs[1])
			} else if analysis.IsErrorType(second) {
				errName, _ = identName(assign.Lhs[1])
			}
		}
		for i, lhs := range assign.Lhs {
			if name, ok := identName(lhs); ok && isFrameType(tuple.At(i).Type()) {
				ev.acquisitions = append(ev.acquisitions, acquisition{name: name, ok: okName, errv: errName, pos: assign.Pos()})
			}
		}
		return
	}
	for i, rhs := range assign.Rhs {
		if i >= len(assign.Lhs) {
			break
		}
		name, ok := identName(assign.Lhs[i])
		if !ok {
			continue
		}
		call, isCall := ast.Unparen(rhs).(*ast.CallExpr)
		if !isCall {
			continue
		}
		if isFrameType(pass.TypeOf(call)) {
			ev.acquisitions = append(ev.acquisitions, acquisition{name: name, pos: assign.Pos()})
		}
	}
}

// markDeferredClosureReleases records Release calls made directly inside a
// deferred closure, which run on every exit path just like a plain defer.
func (c *checker) markDeferredClosureReleases(lit *ast.FuncLit, ev *events) {
	ast.Inspect(lit.Body, func(node ast.Node) bool {
		if inner, ok := node.(*ast.FuncLit); ok && inner != lit {
			c.checkFunc(inner.Body)
			return false
		}
		if call, ok := node.(*ast.CallExpr); ok {
			if name, ok := releaseCall(c.pass, call); ok {
				ev.defers[name] = true
				return false
			}
		}
		return true
	})
}

// releaseCall reports whether call discharges a release obligation on a
// plain identifier receiver: v.Release() or v.Exclusive() (which consumes
// its receiver) on a *frame.Frame.
func releaseCall(pass *analysis.Pass, call *ast.CallExpr) (string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	if sel.Sel.Name != "Release" && sel.Sel.Name != "Exclusive" {
		return "", false
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != FramePkg {
		return "", false
	}
	return analysis.ExprString(pass.Fset, sel.X), true
}

// publishConsumes returns the frame-typed identifier arguments of a
// (*frame.Chain).Publish call. The chain takes ownership by contract —
// it releases the entry when it retires under reclaim — so the call
// discharges the obligation like a release. Recognized syntactically (in
// addition to the seeded summary) so the contract holds even when the
// frame package is resolved from export data and has no call-graph node.
func publishConsumes(pass *analysis.Pass, call *ast.CallExpr) []string {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "Publish" {
		return nil
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != FramePkg {
		return nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	ptr, ok := sig.Recv().Type().(*types.Pointer)
	if !ok {
		return nil
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok || named.Obj() == nil || named.Obj().Name() != "Chain" {
		return nil
	}
	var out []string
	for _, arg := range call.Args {
		if name, ok := identName(arg); ok && isFrameType(pass.TypeOf(arg)) {
			out = append(out, name)
		}
	}
	return out
}

// classifyGuard recognizes the acquisition-failure guard shapes.
func classifyGuard(stmt *ast.IfStmt) (guard, bool) {
	g := guard{start: stmt.Body.Pos(), end: stmt.Body.End()}
	switch cond := ast.Unparen(stmt.Cond).(type) {
	case *ast.Ident:
		// `if ok { ...; return }` with a terminating body: any return
		// after the block runs only when ok was false.
		if cond.Name == "_" || cond.Name == "true" || cond.Name == "false" {
			return g, false
		}
		if len(stmt.Body.List) == 0 {
			return g, false
		}
		if _, isRet := stmt.Body.List[len(stmt.Body.List)-1].(*ast.ReturnStmt); !isRet {
			return g, false
		}
		g.kind, g.name, g.start = guardTakenOK, cond.Name, stmt.Body.End()
		return g, true
	case *ast.UnaryExpr:
		if cond.Op != token.NOT {
			return g, false
		}
		name, ok := identName(cond.X)
		if !ok {
			return g, false
		}
		g.kind, g.name = guardNotOK, name
		return g, true
	case *ast.BinaryExpr:
		if cond.Op != token.EQL && cond.Op != token.NEQ {
			return g, false
		}
		x, y := ast.Unparen(cond.X), ast.Unparen(cond.Y)
		if isNilIdent(x) {
			x, y = y, x
		}
		name, ok := identName(x)
		if !ok || !isNilIdent(y) {
			return g, false
		}
		if cond.Op == token.EQL {
			g.kind = guardIsNil
		} else {
			g.kind = guardNonNil
		}
		g.name = name
		return g, true
	}
	return g, false
}

func isNilIdent(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}

// identName returns the name of a plain non-blank identifier expression.
func identName(e ast.Expr) (string, bool) {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok || id.Name == "_" {
		return "", false
	}
	return id.Name, true
}

// isFrameType reports whether t is *frame.Frame.
func isFrameType(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Name() == "Frame" && obj.Pkg() != nil && obj.Pkg().Path() == FramePkg
}

// mentions reports whether the return statement's results reference the
// variable, transferring its obligation to the caller.
func mentions(ret *ast.ReturnStmt, name string) bool {
	found := false
	for _, res := range ret.Results {
		ast.Inspect(res, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && id.Name == name {
				found = true
				return false
			}
			return !found
		})
	}
	return found
}

// report checks every acquisition against the defers, releases, returns,
// and annotations of its function.
func (c *checker) report(ev *events) {
	pass := c.pass
	for _, a := range ev.acquisitions {
		if ev.defers[a.name] {
			continue
		}
		if pass.Excused(Directive, a.pos) {
			continue
		}
		covered := func(ret token.Pos) bool {
			for _, r := range ev.releases {
				if r.name == a.name && r.pos > a.pos && r.pos < ret {
					return true
				}
			}
			return false
		}
		// A return inside a guard proving the acquisition failed (`!ok`,
		// `f == nil`, `err != nil`) holds no frame and carries no
		// obligation; nor does a return after an `if ok { ...; return }`
		// block that handled the acquired frame.
		guarded := func(ret token.Pos) bool {
			for _, g := range ev.guards {
				if g.kind == guardTakenOK {
					if a.ok != "" && g.name == a.ok && a.pos < g.start && ret >= g.start {
						return true
					}
					continue
				}
				if g.start <= a.pos || ret <= g.start || ret >= g.end {
					continue
				}
				switch g.kind {
				case guardNotOK:
					if a.ok != "" && g.name == a.ok {
						return true
					}
				case guardIsNil:
					if g.name == a.name {
						return true
					}
				case guardNonNil:
					if a.errv != "" && g.name == a.errv {
						return true
					}
				}
			}
			return false
		}
		// If the frame was lent to a resolved callee that does not take
		// ownership, say so: the leak is otherwise easy to misread as
		// handled by the helper.
		lent := func(ret token.Pos) string {
			for _, pe := range ev.passedTo {
				if pe.name == a.name && pe.pos > a.pos && pe.pos < ret {
					return fmt.Sprintf(" (%s was passed to %s (%s), which borrows it and leaves the obligation here)",
						a.name, pe.callee.ID, analysis.ShortPos(pass.Fset, pe.callee.Decl.Pos()))
				}
			}
			return ""
		}
		leaked := false
		for _, ret := range ev.returns {
			if ret.Pos() > a.pos && !guarded(ret.Pos()) && !mentions(ret, a.name) && !covered(ret.Pos()) {
				pass.Reportf(a.pos,
					"frame %s is not released on the return path at line %d%s: add defer %s.Release(), release before returning, or annotate with %s <reason>",
					a.name, pass.Fset.Position(ret.Pos()).Line, lent(ret.Pos()), a.name, Directive)
				leaked = true
				break
			}
		}
		if leaked {
			continue
		}
		// Fall-off-the-end path: a function body that can end without a
		// return still needs some release after the acquisition.
		anyReleaseAfter := false
		for _, r := range ev.releases {
			if r.name == a.name && r.pos > a.pos {
				anyReleaseAfter = true
				break
			}
		}
		if !anyReleaseAfter && len(ev.returns) == 0 {
			pass.Reportf(a.pos, "frame %s is never released: add defer %s.Release() or annotate with %s <reason>",
				a.name, a.name, Directive)
		}
	}
}
