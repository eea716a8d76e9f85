// Package analysis is a deliberately small, dependency-free workalike of
// golang.org/x/tools/go/analysis: just enough driver-independent structure
// to write the khazlint analyzers against the standard library's go/ast
// and go/types. Keeping the shape of the upstream API (Analyzer, Pass,
// Diagnostic) means the analyzers port to the real framework mechanically
// if x/tools ever becomes a dependency.
package analysis

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/printer"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"

	"khazana/internal/lint/callgraph"
	"khazana/internal/lint/loader"
)

// Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and on the command
	// line. By convention it is a single lowercase word.
	Name string
	// Doc is the analyzer's documentation: a one-line summary, a blank
	// line, then details.
	Doc string
	// Run applies the analyzer to a package. It may be nil for analyzers
	// that only work whole-program.
	Run func(*Pass) error
	// RunProgram, when set, applies the analyzer once to the whole
	// loaded program, with the call graph available for interprocedural
	// summaries.
	RunProgram func(*ProgramPass) error
}

func (a *Analyzer) String() string { return a.Name }

// Pass presents one type-checked package to an analyzer's Run function.
type Pass struct {
	// Analyzer is the check being applied.
	Analyzer *Analyzer
	// Fset maps token positions for Files.
	Fset *token.FileSet
	// Files is the package's parsed syntax (comments included).
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// TypesInfo records type and object resolution for Files.
	TypesInfo *types.Info
	// Report delivers one diagnostic to the driver.
	Report func(Diagnostic)

	directives directives // built on the first Excused call
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Excused reports whether a `directive <reason>` comment in the package
// excuses the finding at pos (see directives.excused).
func (p *Pass) Excused(directive string, pos token.Pos) bool {
	if p.directives == nil {
		p.directives = indexDirectives(p.Fset, p.Files)
	}
	return p.directives.excused(p.Fset, directive, pos, p.Reportf)
}

// TypeOf returns the type of e, or nil if unresolved.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	return p.TypesInfo.TypeOf(e)
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// Program presents every loaded package plus the whole-program call graph
// to an analyzer's RunProgram function.
type Program struct {
	// Fset maps positions for every package.
	Fset *token.FileSet
	// Packages are the loaded packages in import-path order.
	Packages []*loader.Package
	// Graph is the whole-program call graph over Packages.
	Graph *callgraph.Graph

	directives directives // built on the first Excused call
}

// NewProgram builds the program view (including its call graph) over the
// loaded packages, which must share fset.
func NewProgram(fset *token.FileSet, pkgs []*loader.Package) *Program {
	return &Program{Fset: fset, Packages: pkgs, Graph: callgraph.Build(fset, pkgs)}
}

// ProgramPass presents the program to one analyzer.
type ProgramPass struct {
	// Analyzer is the check being applied.
	Analyzer *Analyzer
	// Program is the loaded program.
	Program *Program
	// Report delivers one diagnostic to the driver.
	Report func(Diagnostic)
}

// Reportf reports a formatted diagnostic at pos.
func (p *ProgramPass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Excused reports whether a `directive <reason>` comment anywhere in the
// program excuses the finding at pos (see directives.excused).
func (p *ProgramPass) Excused(directive string, pos token.Pos) bool {
	prog := p.Program
	if prog.directives == nil {
		var files []*ast.File
		for _, pkg := range prog.Packages {
			files = append(files, pkg.Files...)
		}
		prog.directives = indexDirectives(prog.Fset, files)
	}
	return prog.directives.excused(prog.Fset, directive, pos, p.Reportf)
}

// directives indexes the //khazana:<name> <reason> comments of a set of
// files: the exceptions the analyzers accept at a finding's site.
type directives map[directiveSite]string

// directiveSite is one directive on one line: the directive is the whole
// //khazana:<name> prefix.
type directiveSite struct {
	file      string
	line      int
	directive string
}

// directivePrefix starts every exception comment the analyzers read.
const directivePrefix = "//khazana:"

func indexDirectives(fset *token.FileSet, files []*ast.File) directives {
	d := make(directives)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, directivePrefix) {
					continue
				}
				directive, reason := c.Text, ""
				if i := strings.IndexAny(c.Text, " \t"); i >= 0 {
					directive, reason = c.Text[:i], c.Text[i:]
				}
				p := fset.Position(c.Pos())
				d[directiveSite{p.Filename, p.Line, directive}] = strings.TrimSpace(reason)
			}
		}
	}
	return d
}

// excused reports whether directive sits on pos's line or the line above.
// A directive with no reason still excuses the site, and is itself
// reported at pos: an exception must say why it is one.
func (d directives) excused(fset *token.FileSet, directive string, pos token.Pos, reportf func(token.Pos, string, ...any)) bool {
	p := fset.Position(pos)
	for _, line := range []int{p.Line, p.Line - 1} {
		if reason, ok := d[directiveSite{p.Filename, line, directive}]; ok {
			if reason == "" {
				reportf(pos, "%s annotation requires a reason", directive)
			}
			return true
		}
	}
	return false
}

// MethodCall resolves a call expression to the *types.Func it invokes, or
// nil when the callee is not a statically known function or method. It is
// shared by the analyzers, which all key on specific API names.
func MethodCall(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		if fn, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	case *ast.Ident:
		if fn, ok := info.Uses[fun].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// ExprString renders an expression as source text.
func ExprString(fset *token.FileSet, e ast.Expr) string {
	var buf bytes.Buffer
	_ = printer.Fprint(&buf, fset, e)
	return buf.String()
}

// IsErrorType reports whether t implements the built-in error interface.
func IsErrorType(t types.Type) bool {
	return t != nil && types.Implements(t, errorType)
}

var errorType = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

// ShortPos renders pos as file:line with the directory dropped, for the
// call chains diagnostics spell out.
func ShortPos(fset *token.FileSet, pos token.Pos) string {
	p := fset.Position(pos)
	return fmt.Sprintf("%s:%d", filepath.Base(p.Filename), p.Line)
}
