// Whole-program lock-acquisition graph and cycle detection.
//
// The intraprocedural pass (lockorder.go) enforces the canonical order of
// core.Node's mutexes within one function body. This pass generalizes to
// every sync.Mutex/RWMutex struct field in the program and across call
// boundaries: each function's summary records which locks it (or anything
// it calls, interface calls resolved to every loaded implementation) may
// acquire; holding lock A at a call whose callee may acquire lock B adds
// the edge A → B to a global lock-acquisition graph. A cycle in that
// graph means two call paths can take the same pair of locks in opposite
// orders — a deadlock no per-function check can see. Each cycle is
// reported once, with the full witness call chain for every edge.
//
// Lock identity is the (struct type, field name) pair, an abstraction
// over instances: two different instances of the same type cannot be
// distinguished statically, so a self-cycle on one field is reported only
// when the reacquisition is write-locked (read-read self-cycles on an
// RWMutex are the common instance-split pattern and do not deadlock on
// their own).
package lockorder

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"

	"khazana/internal/lint/analysis"
	"khazana/internal/lint/callgraph"
	"khazana/internal/lint/lockset"
)

// acqWitness records one way a function may come to acquire a lock: a
// direct acquisition (via == nil) or a call into a callee whose summary
// holds the rest of the chain.
type acqWitness struct {
	pos  token.Pos
	read bool
	via  *callgraph.Node
}

// lockEdge is one held→acquired pair observed anywhere in the program.
type lockEdge struct{ from, to lockset.Key }

// edgeWitness locates one occurrence of an edge: fn holds from (taken at
// heldPos) when it performs the acquisition described by w.
type edgeWitness struct {
	fn      *callgraph.Node
	heldPos token.Pos
	w       acqWitness
}

func runProgram(pass *analysis.ProgramPass) error {
	g := pass.Program.Graph
	summaries := make(map[*callgraph.Node]map[lockset.Key]acqWitness)
	edges := make(map[lockEdge]edgeWitness)

	record := func(e lockEdge, w edgeWitness) {
		if _, ok := edges[e]; !ok {
			edges[e] = w
		}
	}
	for _, scc := range g.SCCs() {
		for changed := true; changed; {
			changed = false
			for _, node := range scc {
				if grow(g, summaries, node, record) {
					changed = true
				}
			}
		}
	}
	reportCycles(pass, summaries, edges)
	return nil
}

// grow recomputes node's may-acquire summary and records lock edges,
// reporting whether the summary gained entries.
func grow(g *callgraph.Graph, summaries map[*callgraph.Node]map[lockset.Key]acqWitness, node *callgraph.Node, record func(lockEdge, edgeWitness)) bool {
	sum := summaries[node]
	if sum == nil {
		sum = make(map[lockset.Key]acqWitness)
		summaries[node] = sum
	}
	before := len(sum)
	lockset.Walk(node.Pkg.Info, node.Decl.Body, lockset.Callbacks{
		Acquire: func(k lockset.Key, read bool, pos token.Pos, held lockset.Held) {
			if _, ok := sum[k]; !ok {
				sum[k] = acqWitness{pos: pos, read: read}
			}
			for h, hp := range held {
				record(lockEdge{from: h, to: k}, edgeWitness{fn: node, heldPos: hp, w: acqWitness{pos: pos, read: read}})
			}
		},
		Call: func(call *ast.CallExpr, held lockset.Held) {
			for _, callee := range g.ResolveCall(node.Pkg, call) {
				for k, cw := range summaries[callee] {
					w := acqWitness{pos: call.Lparen, read: cw.read, via: callee}
					if _, ok := sum[k]; !ok {
						sum[k] = w
					}
					for h, hp := range held {
						record(lockEdge{from: h, to: k}, edgeWitness{fn: node, heldPos: hp, w: w})
					}
				}
			}
		},
	})
	return len(sum) > before
}

// reportCycles finds cycles in the lock-acquisition graph and reports
// each once, with witness chains for every edge.
func reportCycles(pass *analysis.ProgramPass, summaries map[*callgraph.Node]map[lockset.Key]acqWitness, edges map[lockEdge]edgeWitness) {
	// Adjacency, deterministically ordered.
	adj := make(map[lockset.Key][]lockset.Key)
	for e := range edges {
		adj[e.from] = append(adj[e.from], e.to)
	}
	for k := range adj {
		tos := adj[k]
		sort.Slice(tos, func(i, j int) bool { return tos[i].String() < tos[j].String() })
		adj[k] = tos
	}
	keys := make([]lockset.Key, 0, len(adj))
	for k := range adj {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].String() < keys[j].String() })

	reported := make(map[string]bool)
	for _, start := range keys {
		// Self-cycle: reacquiring the same field through a call chain.
		// Read-read reacquisition of an RWMutex is tolerated (distinct
		// instances, and RLock nests); anything involving a write lock
		// can deadlock against itself or a queued writer.
		if w, ok := edges[lockEdge{from: start, to: start}]; ok && !w.w.read {
			cyc := canonicalCycle([]lockset.Key{start})
			if !reported[cyc] {
				reported[cyc] = true
				pass.Reportf(w.w.pos, "lock-order cycle: %s → %s; %s",
					start, start, edgeChain(pass, summaries, lockEdge{from: start, to: start}, w))
			}
		}
		path := []lockset.Key{start}
		onPath := map[lockset.Key]bool{start: true}
		var dfs func(k lockset.Key) bool
		dfs = func(k lockset.Key) bool {
			for _, next := range adj[k] {
				if next == start && len(path) > 1 {
					reportCycle(pass, summaries, edges, path, reported)
					return true
				}
				if onPath[next] || next.String() < start.String() {
					continue
				}
				path = append(path, next)
				onPath[next] = true
				found := dfs(next)
				path = path[:len(path)-1]
				delete(onPath, next)
				if found {
					return true
				}
			}
			return false
		}
		dfs(start)
	}
}

// reportCycle emits one diagnostic for the cycle described by path (which
// closes back to path[0]).
func reportCycle(pass *analysis.ProgramPass, summaries map[*callgraph.Node]map[lockset.Key]acqWitness, edges map[lockEdge]edgeWitness, path []lockset.Key, reported map[string]bool) {
	canon := canonicalCycle(path)
	if reported[canon] {
		return
	}
	reported[canon] = true
	names := make([]string, 0, len(path)+1)
	for _, k := range path {
		names = append(names, k.String())
	}
	names = append(names, path[0].String())
	var chains []string
	for i := range path {
		e := lockEdge{from: path[i], to: path[(i+1)%len(path)]}
		chains = append(chains, edgeChain(pass, summaries, e, edges[e]))
	}
	first := edges[lockEdge{from: path[0], to: path[1%len(path)]}]
	pass.Reportf(first.w.pos, "lock-order cycle: %s; %s",
		strings.Join(names, " → "), strings.Join(chains, "; "))
}

// canonicalCycle renders a rotation-independent cycle identity.
func canonicalCycle(path []lockset.Key) string {
	min := 0
	for i := range path {
		if path[i].String() < path[min].String() {
			min = i
		}
	}
	parts := make([]string, 0, len(path))
	for i := range path {
		parts = append(parts, path[(min+i)%len(path)].String())
	}
	return strings.Join(parts, "→")
}

// edgeChain renders the witness call chain for one lock edge:
// "a.mu → b.mu via pkg.F (f.go:10, holding a.mu) → pkg.G (g.go:5) acquires b.mu".
func edgeChain(pass *analysis.ProgramPass, summaries map[*callgraph.Node]map[lockset.Key]acqWitness, e lockEdge, w edgeWitness) string {
	fset := pass.Program.Fset
	steps := []string{fmt.Sprintf("%s (%s, holding %s)", w.fn.ID, analysis.ShortPos(fset, w.w.pos), e.from)}
	cur := w.w
	seen := map[*callgraph.Node]bool{w.fn: true}
	for cur.via != nil && !seen[cur.via] {
		seen[cur.via] = true
		next, ok := summaries[cur.via][e.to]
		if !ok {
			break
		}
		steps = append(steps, fmt.Sprintf("%s (%s)", cur.via.ID, analysis.ShortPos(fset, next.pos)))
		cur = next
	}
	const maxSteps = 8
	if len(steps) > maxSteps {
		steps = append(steps[:maxSteps], "…")
	}
	return fmt.Sprintf("%s → %s via %s acquires %s", e.from, e.to, strings.Join(steps, " → "), e.to)
}
