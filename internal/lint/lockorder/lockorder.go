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
	"slices"
	"strings"

	"khazana/internal/lint/analysis"
	"khazana/internal/lint/lockset"
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

// rank is k's place in Order, or -1 when k is not a guarded mutex.
func rank(k lockset.Key) int {
	if k.Type != GuardedType {
		return -1
	}
	return slices.Index(Order, k.Field)
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			// lockset.Walk skips function literals: a closure runs later
			// or on another goroutine, so each is checked on its own.
			checkBody(pass, fn.Body)
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					checkBody(pass, lit.Body)
				}
				return true
			})
		}
	}
	return nil
}

// checkBody reports each acquisition of a guarded mutex, on any path of
// body, that re-enters it or follows a later-ranked one.
func checkBody(pass *analysis.Pass, body *ast.BlockStmt) {
	lockset.Walk(pass.TypesInfo, body, lockset.Callbacks{
		Acquire: func(k lockset.Key, _ bool, pos token.Pos, held lockset.Held) {
			r := rank(k)
			if r < 0 {
				return
			}
			if _, ok := held[k]; ok {
				pass.Reportf(pos, "re-entrant acquisition of %s (already held; sync.Mutex is not reentrant)", k)
				return
			}
			for h := range held {
				if rank(h) > r {
					pass.Reportf(pos, "acquires %s while holding %s: canonical order for %s is %s",
						k.Field, h.Field, GuardedType, strings.Join(Order, " → "))
				}
			}
		},
	})
}
