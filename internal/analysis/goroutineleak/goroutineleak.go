// Package goroutineleak audits every `go` statement in the service and
// cluster layers for a reachable stop path. The fabric's shutdown story
// (Service.Close/Drain, Node.Close) waits on WaitGroups; a goroutine whose
// loop can spin without ever observing a stop signal turns those joins into
// hangs — exactly the bug class the heartbeat loop, anti-entropy ticker, and
// routed-job status polls flirt with.
//
// The rule: from a `go` statement, every statically unbounded loop
// reachable through the module call graph (the spawned function, the
// functions it calls, transitively) must contain stop evidence — a select
// or channel receive (a closed channel unblocks it), a range over a
// channel, a ctx.Done()/ctx.Err() check, or a sync.Cond/WaitGroup wait
// (whose waker is the closing side) — either directly in the loop body or
// inside a function the loop body calls. Goroutines with no unbounded
// loops terminate structurally and always pass. Bounded three-clause
// `for i := 0; i < n; i++` loops are not audited.
//
// Calls the IR cannot resolve (interface methods, func values) contribute
// no evidence: the analyzer is deliberately pessimistic there, because an
// RPC that "should eventually fail" is not a stop path. A reviewed site
// carries a line-scoped escape with a mandatory justification:
//
//	//simlint:leakok <why this goroutine terminates or may outlive Close>
package goroutineleak

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"

	"repro/internal/analysis/framework"
)

// ScopePattern selects the packages whose goroutines are audited: the
// long-lived serving layers, where a leaked goroutine outlives the job
// that spawned it. Simulation code does not spawn goroutines; cmds are
// process-lifetime. The testdata fixture trees embed these paths so the
// same default applies.
var ScopePattern = regexp.MustCompile(`internal/(service|cluster)(/|$)`)

// Analyzer is the goroutineleak pass.
var Analyzer = &framework.Analyzer{
	Name: "goroutineleak",
	Doc: "every goroutine in service/cluster needs a reachable stop path\n\n" +
		"Unbounded loops inside spawned goroutines must observe a stop channel, context cancel, channel close, or condition-variable wait, or Close/Drain joins hang.",
	RunModule: runModule,
}

func runModule(mp *framework.ModulePass) error {
	a := &auditor{mp: mp, evidence: localEvidence(mp.IR)}
	// Propagate "contains stop evidence" from callees to callers so a loop
	// that blocks inside q.pop() (sync.Cond.Wait under the hood) is
	// recognized through the call.
	a.evidenceClosure = mp.IR.Propagate(a.evidence)

	for _, pkg := range mp.Packages {
		if !ScopePattern.MatchString(pkg.PkgPath) {
			continue
		}
		for _, key := range sortedFuncKeys(mp.IR, pkg) {
			fir := mp.IR.Funcs[key]
			for _, g := range fir.Gos {
				a.checkGo(pkg, fir, g)
			}
		}
	}
	return nil
}

type auditor struct {
	mp              *framework.ModulePass
	evidence        map[string]bool // function has local stop evidence
	evidenceClosure map[string]bool // transitive over the call graph
}

// checkGo audits one `go` statement.
func (a *auditor) checkGo(pkg *framework.Package, fir *framework.FuncIR, g *ast.GoStmt) {
	reason, present := a.mp.DirectiveReason(g.Pos(), "//simlint:leakok")
	if present && reason == "" {
		a.mp.Reportf(g.Pos(), "//simlint:leakok needs a justification: say why this goroutine terminates")
		return
	}
	if present {
		return
	}
	var body *ast.BlockStmt
	var startKey string
	switch fun := ast.Unparen(g.Call.Fun).(type) {
	case *ast.FuncLit:
		body = fun.Body
	default:
		if callee := framework.CalleeOf(pkg.TypesInfo, g.Call); callee != nil {
			startKey = framework.FuncKey(callee)
		}
	}

	visited := map[string]bool{}
	var loops []loopAt
	if body != nil {
		loops = a.collectLoops(pkg, body, visited, 0)
	} else if startKey != "" {
		if target, ok := a.mp.IR.Funcs[startKey]; ok {
			visited[startKey] = true
			loops = a.collectLoops(target.Pkg, target.Body, visited, 0)
		}
	}
	for _, l := range loops {
		if a.loopHasStopPath(l.pkg, l.loop) {
			continue
		}
		if _, ok := a.mp.DirectiveReason(l.loop.Pos(), "//simlint:leakok"); ok {
			continue
		}
		a.mp.Reportf(g.Pos(), "goroutine can spin forever: unbounded loop at %s has no reachable stop path (select/receive on a stop channel, ctx.Done, channel range, or cond/WaitGroup wait); add one or annotate //simlint:leakok <why>",
			a.mp.Fset.Position(l.loop.Pos()))
	}
}

type loopAt struct {
	pkg  *framework.Package
	loop *ast.ForStmt
}

// maxDepth bounds the transitive loop hunt: the serving layers' goroutine
// bodies are shallow (loop -> round -> RPC helper); past that the sim call
// tree starts and every loop there is cycle-bounded.
const maxDepth = 3

// collectLoops gathers every statically unbounded for-loop reachable from
// body through resolvable module calls.
func (a *auditor) collectLoops(pkg *framework.Package, body ast.Node, visited map[string]bool, depth int) []loopAt {
	var out []loopAt
	if body == nil {
		return out
	}
	var callees []string
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			return false // a nested go statement is its own audit site
		case *ast.ForStmt:
			if unbounded(n) {
				out = append(out, loopAt{pkg, n})
			}
		case *ast.CallExpr:
			if callee := framework.CalleeOf(pkg.TypesInfo, n); callee != nil {
				callees = append(callees, framework.FuncKey(callee))
			}
		}
		return true
	})
	if depth >= maxDepth {
		return out
	}
	for _, key := range callees {
		if visited[key] {
			continue
		}
		visited[key] = true
		target, ok := a.mp.IR.Funcs[key]
		if !ok || !ScopePattern.MatchString(target.Pkg.PkgPath) {
			continue
		}
		out = append(out, a.collectLoops(target.Pkg, target.Body, visited, depth+1)...)
	}
	return out
}

// unbounded reports whether a for-loop has no static bound: `for {}`,
// `for cond {}` (condition-only loops are wait loops — the evidence rules
// absolve the legitimate ones), or `for init; ; post {}`. Three-clause
// loops with a condition are counted as bounded.
func unbounded(f *ast.ForStmt) bool {
	if f.Cond == nil {
		return true
	}
	return f.Init == nil && f.Post == nil
}

// loopHasStopPath reports whether the loop body (or its condition) carries
// stop evidence, directly or through a resolvable call.
func (a *auditor) loopHasStopPath(pkg *framework.Package, loop *ast.ForStmt) bool {
	found := false
	check := func(n ast.Node) bool {
		if found || n == nil {
			return false
		}
		if nodeIsEvidence(pkg.TypesInfo, n) {
			found = true
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if callee := framework.CalleeOf(pkg.TypesInfo, call); callee != nil {
				if a.evidenceClosure[framework.FuncKey(callee)] {
					found = true
					return false
				}
			}
		}
		return true
	}
	if loop.Cond != nil {
		ast.Inspect(loop.Cond, check)
	}
	ast.Inspect(loop.Body, check)
	return found
}

// localEvidence computes, per declared function, whether its body directly
// contains a stop-capable blocking construct.
func localEvidence(ir *framework.ModuleIR) map[string]bool {
	out := map[string]bool{}
	for key, fir := range ir.Funcs {
		has := false
		ast.Inspect(fir.Body, func(n ast.Node) bool {
			if has {
				return false
			}
			if nodeIsEvidence(fir.Pkg.TypesInfo, n) {
				has = true
				return false
			}
			return true
		})
		if has {
			out[key] = true
		}
	}
	return out
}

// nodeIsEvidence recognizes one stop-capable construct: a select, a channel
// receive, a range over a channel, ctx.Done()/ctx.Err(), or a wait on a
// sync.Cond / sync.WaitGroup.
func nodeIsEvidence(info *types.Info, n ast.Node) bool {
	switch n := n.(type) {
	case *ast.SelectStmt:
		return true
	case *ast.UnaryExpr:
		return n.Op == token.ARROW
	case *ast.RangeStmt:
		if tv, ok := info.Types[n.X]; ok && tv.Type != nil {
			_, isChan := tv.Type.Underlying().(*types.Chan)
			return isChan
		}
	case *ast.CallExpr:
		sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr)
		if !ok {
			return false
		}
		fn, ok := info.ObjectOf(sel.Sel).(*types.Func)
		if !ok || fn.Pkg() == nil {
			return false
		}
		switch fn.Pkg().Path() {
		case "sync":
			return fn.Name() == "Wait" // Cond.Wait, WaitGroup.Wait
		case "context":
			return fn.Name() == "Done" || fn.Name() == "Err"
		}
	}
	return false
}

// sortedFuncKeys lists pkg's declared-function keys in deterministic order.
func sortedFuncKeys(ir *framework.ModuleIR, pkg *framework.Package) []string {
	var keys []string
	for key, fir := range ir.Funcs {
		if fir.Pkg == pkg {
			keys = append(keys, key)
		}
	}
	sort.Strings(keys)
	return keys
}
