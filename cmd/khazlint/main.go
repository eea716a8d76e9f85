// Command khazlint runs Khazana's static-analysis suite: the analyzers
// enforcing the concurrency and error-handling invariants the daemon's
// correctness depends on (see README "Static analysis & CI").
//
//	go run ./cmd/khazlint ./...
//
// It loads every package matching the patterns (./... when none is given)
// as one program, so the whole-program passes — lockorder's cycle
// detection, blockunderlock and framerelease — build one call graph and
// reason across function and package boundaries. It prints one
// file:line:col: [analyzer] message line per finding and takes no flags:
// a deliberate exception is a //khazana:<directive> <reason> comment at
// its site.
//
// Exit status: 0 clean, 1 findings, 2 usage or load errors.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"khazana/internal/lint"
	"khazana/internal/lint/loader"
)

func main() {
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: khazlint [packages]\n\nAnalyzers:\n")
		for _, a := range lint.Analyzers() {
			doc, _, _ := strings.Cut(a.Doc, "\n")
			fmt.Fprintf(os.Stderr, "  %-14s %s\n", a.Name, doc)
		}
	}
	flag.Parse()
	os.Exit(run(flag.Args(), os.Stdout, os.Stderr))
}

// run lints the packages matching patterns, printing findings to stdout
// and errors to stderr, and returns the exit status.
func run(patterns []string, stdout, stderr io.Writer) int {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := loader.Load("", patterns)
	if err != nil {
		fmt.Fprintln(stderr, "khazlint:", err)
		return 2
	}
	findings, err := lint.Check(pkgs)
	if err != nil {
		fmt.Fprintln(stderr, "khazlint:", err)
		return 2
	}
	for _, f := range findings {
		fmt.Fprintf(stdout, "%s:%d:%d: [%s] %s\n", relPath(f.Pos.Filename), f.Pos.Line, f.Pos.Column, f.Analyzer, f.Message)
	}
	if len(findings) > 0 {
		fmt.Fprintf(stderr, "khazlint: %d finding(s)\n", len(findings))
		return 1
	}
	return 0
}

// relPath renders a position filename relative to the working directory
// when that is shorter, keeping the output machine-independent.
func relPath(name string) string {
	wd, err := os.Getwd()
	if err != nil {
		return name
	}
	rel, err := filepath.Rel(wd, name)
	if err != nil || len(rel) >= len(name) {
		return name
	}
	return rel
}
