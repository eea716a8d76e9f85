// Package lint assembles the khazlint analyzer suite and runs it over a
// loaded program.
package lint

import (
	"go/token"
	"sort"

	"khazana/internal/lint/analysis"
	"khazana/internal/lint/blockunderlock"
	"khazana/internal/lint/ctxpropagate"
	"khazana/internal/lint/deferunlock"
	"khazana/internal/lint/erricheck"
	"khazana/internal/lint/framerelease"
	"khazana/internal/lint/loader"
	"khazana/internal/lint/lockorder"
	"khazana/internal/lint/telemetryname"
	"khazana/internal/lint/wireexhaustive"
)

// Analyzers returns the suite in stable order.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		lockorder.Analyzer,
		blockunderlock.Analyzer,
		deferunlock.Analyzer,
		ctxpropagate.Analyzer,
		erricheck.Analyzer,
		framerelease.Analyzer,
		telemetryname.Analyzer,
		wireexhaustive.Analyzer,
	}
}

// Finding is one resolved diagnostic.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// Check runs every analyzer of the suite over the packages and returns
// the findings sorted by position. Analyzers with a RunProgram hook run
// once over the whole program (all packages plus the call graph); the
// rest run per-package. The packages must share one FileSet, as
// loader.Load guarantees.
func Check(pkgs []*loader.Package) ([]Finding, error) {
	if len(pkgs) == 0 {
		return nil, nil
	}
	analyzers := Analyzers()
	var findings []Finding
	var prog *analysis.Program
	for _, a := range analyzers {
		if a.RunProgram == nil {
			continue
		}
		if prog == nil {
			prog = analysis.NewProgram(pkgs[0].Fset, pkgs)
		}
		name := a.Name
		pass := &analysis.ProgramPass{
			Analyzer: a,
			Program:  prog,
			Report: func(d analysis.Diagnostic) {
				findings = append(findings, Finding{
					Analyzer: name,
					Pos:      prog.Fset.Position(d.Pos),
					Message:  d.Message,
				})
			},
		}
		if err := a.RunProgram(pass); err != nil {
			return nil, err
		}
	}
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			// An analyzer may have both hooks (lockorder: per-function
			// checks in Run, whole-program cycle detection in RunProgram);
			// the two report disjoint diagnostics.
			if a.Run == nil {
				continue
			}
			pass := &analysis.Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
			}
			name := a.Name
			pass.Report = func(d analysis.Diagnostic) {
				findings = append(findings, Finding{
					Analyzer: name,
					Pos:      pkg.Fset.Position(d.Pos),
					Message:  d.Message,
				})
			}
			if err := a.Run(pass); err != nil {
				return nil, err
			}
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i].Pos, findings[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return findings[i].Analyzer < findings[j].Analyzer
	})
	return findings, nil
}
