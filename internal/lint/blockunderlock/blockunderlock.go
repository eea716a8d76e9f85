// Package blockunderlock reports operations that can block — RPC sends,
// transport I/O, channel operations, sleeps — reachable while a
// sync.Mutex or sync.RWMutex struct field is held.
//
// A Khazana daemon serves every client from one address space; a mutex
// held across a network round-trip or an unbounded channel wait turns one
// slow peer into a node-wide stall, and is exactly the hazard the planned
// core.Node mutex sharding must not introduce. The check is
// whole-program: per-function summaries record whether a function may
// block (directly or through anything it calls, with interface calls
// resolved to every loaded implementation), and each site holding a mutex
// is checked against the summary of everything it reaches. Diagnostics
// carry the full call chain from the lock-holding function down to the
// blocking operation.
//
// Blocking roots are channel sends/receives, selects without a default
// clause, ranging over a channel, time.Sleep, sync.WaitGroup.Wait, and
// the unresolvable I/O leaves of the transport layer (net.Conn reads and
// writes, dialing, accepting, io.ReadFull). Acquiring another sync.Mutex
// is deliberately not a blocking root — ordering hazards between mutexes
// are the lockorder analyzer's domain.
//
// Some blocking under a lock is intentional (the map-home serializes
// address-map mutations by design). Those sites are annotated
//
//	//khazana:block-ok <reason>
//
// on the blocking statement's line or the line above. The annotation
// requires a reason; an empty one is itself reported. Closures are
// separate execution contexts: events inside a nested function literal do
// not count against the enclosing function's held locks, and a
// goroutine's body starts with nothing held.
package blockunderlock

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"

	"khazana/internal/lint/analysis"
	"khazana/internal/lint/callgraph"
	"khazana/internal/lint/loader"
	"khazana/internal/lint/lockset"
)

// Analyzer is the blockunderlock check.
var Analyzer = &analysis.Analyzer{
	Name:       "blockunderlock",
	Doc:        "report blocking operations reachable while a sync mutex is held",
	RunProgram: runProgram,
}

// Directive marks an intentional blocking call under a lock, followed by
// a required reason.
const Directive = "//khazana:block-ok"

// blockingRoots are functions with unloadable bodies that block by
// contract, keyed by callgraph.FuncID.
var blockingRoots = map[string]string{
	"time.Sleep":                "time.Sleep",
	"(*sync.WaitGroup).Wait":    "sync.WaitGroup.Wait",
	"(net.Conn).Read":           "net.Conn.Read",
	"(net.Conn).Write":          "net.Conn.Write",
	"(net.Listener).Accept":     "net.Listener.Accept",
	"(*net.Dialer).DialContext": "net.Dialer.DialContext",
	"net.Dial":                  "net.Dial",
	"io.ReadFull":               "io.ReadFull",
}

// witness records why a function may block: a direct operation (via ==
// nil) or a call into a callee that may block.
type witness struct {
	kind string          // description of the leaf operation
	pos  token.Pos       // site in this function
	via  *callgraph.Node // callee the blocking is reached through
}

func runProgram(pass *analysis.ProgramPass) error {
	g := pass.Program.Graph
	summaries := computeSummaries(g)
	for _, node := range g.Nodes() {
		report(pass, g, summaries, node)
	}
	return nil
}

// computeSummaries derives may-block witnesses bottom-up over SCCs,
// iterating each component to fixpoint (witnesses only appear, so this
// terminates).
func computeSummaries(g *callgraph.Graph) map[*callgraph.Node]*witness {
	summaries := make(map[*callgraph.Node]*witness)
	for _, scc := range g.SCCs() {
		for changed := true; changed; {
			changed = false
			for _, node := range scc {
				if summaries[node] != nil {
					continue
				}
				if w := summarize(g, summaries, node); w != nil {
					summaries[node] = w
					changed = true
				}
			}
		}
	}
	return summaries
}

// summarize finds the first blocking witness in node's body, if any.
func summarize(g *callgraph.Graph, summaries map[*callgraph.Node]*witness, node *callgraph.Node) *witness {
	var found *witness
	lockset.Walk(node.Pkg.Info, node.Decl.Body, lockset.Callbacks{
		ChanOp: func(kind string, pos token.Pos, _ lockset.Held) {
			if found == nil {
				found = &witness{kind: kind, pos: pos}
			}
		},
		Call: func(call *ast.CallExpr, _ lockset.Held) {
			if found != nil {
				return
			}
			found = callWitness(g, summaries, node.Pkg, call)
		},
	})
	return found
}

// callWitness classifies one call: a blocking root, a call to a callee
// that may block, or nil.
func callWitness(g *callgraph.Graph, summaries map[*callgraph.Node]*witness, pkg *loader.Package, call *ast.CallExpr) *witness {
	if fn := analysis.MethodCall(pkg.Info, call); fn != nil {
		if kind, ok := blockingRoots[callgraph.FuncID(fn)]; ok {
			return &witness{kind: kind, pos: call.Lparen}
		}
	}
	for _, callee := range g.ResolveCall(pkg, call) {
		if summaries[callee] != nil {
			return &witness{kind: "call", pos: call.Lparen, via: callee}
		}
	}
	return nil
}

// report walks node again, flagging blocking events that occur with a
// mutex held.
func report(pass *analysis.ProgramPass, g *callgraph.Graph, summaries map[*callgraph.Node]*witness, node *callgraph.Node) {
	fset := pass.Program.Fset
	reported := make(map[token.Pos]bool)
	emit := func(pos token.Pos, held lockset.Held, chain string) {
		if reported[pos] {
			return
		}
		reported[pos] = true
		if pass.Excused(Directive, pos) {
			return
		}
		pass.Reportf(pos, "%s while holding %s: annotate with %s <reason> if intentional",
			chain, heldString(fset, held), Directive)
	}
	lockset.Walk(node.Pkg.Info, node.Decl.Body, lockset.Callbacks{
		ChanOp: func(kind string, pos token.Pos, held lockset.Held) {
			if len(held) == 0 {
				return
			}
			emit(pos, held, fmt.Sprintf("blocks (%s)", kind))
		},
		Call: func(call *ast.CallExpr, held lockset.Held) {
			if len(held) == 0 {
				return
			}
			w := callWitness(g, summaries, node.Pkg, call)
			if w == nil {
				return
			}
			emit(call.Lparen, held, chainString(fset, summaries, w))
		},
	})
}

// chainString renders the call chain from a witness down to the blocking
// leaf: "may block (RPC): calls a.F (f.go:10) → b.G (g.go:20) → channel
// send (g.go:21)".
func chainString(fset *token.FileSet, summaries map[*callgraph.Node]*witness, w *witness) string {
	if w.via == nil {
		return fmt.Sprintf("blocks (%s)", w.kind)
	}
	var steps []string
	seen := make(map[*callgraph.Node]bool)
	for w != nil && w.via != nil && !seen[w.via] {
		seen[w.via] = true
		next := summaries[w.via]
		if next == nil {
			break
		}
		steps = append(steps, fmt.Sprintf("%s (%s)", w.via.ID, analysis.ShortPos(fset, next.pos)))
		w = next
	}
	leaf := "blocks"
	if w != nil && w.via == nil {
		leaf = w.kind
	}
	const maxSteps = 8
	if len(steps) > maxSteps {
		steps = append(steps[:maxSteps], "…")
	}
	return fmt.Sprintf("may block (%s): calls %s", leaf, strings.Join(steps, " → "))
}

// heldString lists the held locks with their acquisition sites, sorted.
func heldString(fset *token.FileSet, held lockset.Held) string {
	keys := make([]lockset.Key, 0, len(held))
	for k := range held {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].String() < keys[j].String() })
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s (held at %s)", k, analysis.ShortPos(fset, held[k]))
	}
	return strings.Join(parts, ", ")
}
