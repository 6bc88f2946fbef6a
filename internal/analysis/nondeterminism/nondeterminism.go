// Package nondeterminism rejects constructs that would break the
// simulator's bit-exact reproducibility guarantees: crash re-runs,
// cycle-skip lockstep, and content-addressed result caching all assume
// that a (Config, trace) pair fully determines every simulation output. Inside simulation-state packages the analyzer forbids wall-clock
// and entropy sources and flags map iterations whose bodies let Go's
// randomized map order leak into simulation-visible state or output.
//
// Two reviewed-escape directives exist, both line-scoped (same line or the
// line above):
//
//	//simlint:ordered    this map iteration is order-insensitive
//	//simlint:wallclock  this clock read never feeds simulation state
//	                     (e.g. operator progress reporting)
package nondeterminism

import (
	"go/ast"
	"go/token"
	"go/types"
	"regexp"

	"repro/internal/analysis/framework"
)

// SimStatePattern selects the packages whose import paths hold
// simulation-visible state or deterministic output: the model packages
// (fingerprint bit-identity) plus figures/report (byte-identical
// table emission, pinned by the service golden tests). Everything outside
// it (service, obs, tooling) is free to read clocks. The testdata fixture
// trees embed "internal/sim" in their paths on purpose so the same default
// applies.
var SimStatePattern = regexp.MustCompile(`internal/(sim|cpu|emc|mem|interconnect|bpred|prefetch|vm|figures|report)(/|$)`)

// Analyzer is the nondeterminism pass.
var Analyzer = &framework.Analyzer{
	Name: "nondeterminism",
	Doc: "forbid wall-clock/entropy sources and order-leaking map iteration in simulation-state packages\n\n" +
		"Bit-exact determinism (crash re-runs, cycle-skip lockstep, fingerprint caching) requires that no simulation state derive from time, global randomness, or Go's randomized map order.",
	Run: run,
}

// forbiddenCalls maps package path -> function name -> reason. A nil inner
// map forbids every exported function of the package.
var forbiddenCalls = map[string]map[string]string{
	"time": {
		"Now":       "wall clock",
		"Since":     "wall clock",
		"Until":     "wall clock",
		"After":     "wall-clock timer",
		"AfterFunc": "wall-clock timer",
		"Tick":      "wall-clock timer",
		"NewTicker": "wall-clock timer",
		"NewTimer":  "wall-clock timer",
		"Sleep":     "wall-clock dependence",
	},
	"math/rand":    nil, // all but the constructors below
	"math/rand/v2": nil,
}

// randConstructors are the seedable constructors of math/rand[/v2]; calling
// them with an explicit seed is the sanctioned way to get reproducible
// randomness, so they are exempt from the package-level ban.
var randConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

func run(pass *framework.Pass) error {
	if pass.Pkg == nil || !SimStatePattern.MatchString(pass.Pkg.Path()) {
		return nil
	}
	seen := map[string]bool{} // dedupe: nested map-range walks can revisit a node
	reportf := func(pos token.Pos, format string, args ...any) {
		p := pass.Fset.Position(pos)
		key := p.String() + format
		if seen[key] {
			return
		}
		seen[key] = true
		pass.Reportf(pos, format, args...)
	}

	for _, file := range pass.Files {
		for _, imp := range file.Imports {
			if imp.Path.Value == `"crypto/rand"` {
				reportf(imp.Pos(), "crypto/rand imported in simulation-state package: entropy breaks bit-exact replay")
			}
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkCall(pass, reportf, n)
			case *ast.RangeStmt:
				if isMapRange(pass, n) && !pass.Directive(n.Pos(), "//simlint:ordered") {
					checkMapRange(pass, reportf, file, n)
				}
			}
			return true
		})
	}
	return nil
}

func checkCall(pass *framework.Pass, reportf func(token.Pos, string, ...any), call *ast.CallExpr) {
	path, name, ok := pass.ImportedPath(call.Fun)
	if !ok {
		return
	}
	reasons, banned := forbiddenCalls[path]
	if !banned {
		return
	}
	if reasons == nil { // whole package banned except constructors
		if randConstructors[name] {
			return
		}
		reportf(call.Pos(), "%s.%s uses the unseeded global random stream: seed a local rand.New(rand.NewSource(seed)) instead", path, name)
		return
	}
	reason, bad := reasons[name]
	if !bad {
		return
	}
	if path == "time" && pass.Directive(call.Pos(), "//simlint:wallclock") {
		return
	}
	reportf(call.Pos(), "%s.%s (%s) in simulation-state package: derive timing from the cycle counter", path, name, reason)
}

func isMapRange(pass *framework.Pass, rng *ast.RangeStmt) bool {
	tv, ok := pass.TypesInfo.Types[rng.X]
	if !ok || tv.Type == nil {
		return false
	}
	_, isMap := tv.Type.Underlying().(*types.Map)
	return isMap
}

// allowedCallPkgs are packages whose functions are pure and order-safe to
// call from inside a map-iteration body.
var allowedCallPkgs = map[string]bool{"math": true, "math/bits": true}

// sortCalls recognizes "this slice gets sorted" call sites.
var sortCalls = map[string]map[string]bool{
	"sort":   {"Strings": true, "Ints": true, "Float64s": true, "Sort": true, "Stable": true, "Slice": true, "SliceStable": true},
	"slices": {"Sort": true, "SortFunc": true, "SortStableFunc": true},
}

// checkMapRange enforces the collection discipline: a map-iteration body
// may only write function-local state through order-independent stores
// (keyed writes, integer accumulation) or append into a local slice that is
// sorted after the loop. Everything else — calls with side effects,
// non-local writes, float accumulation, order-dependent returns — is
// reported.
func checkMapRange(pass *framework.Pass, reportf func(token.Pos, string, ...any), file *ast.File, rng *ast.RangeStmt) {
	fn := enclosingFunc(file, rng.Pos())
	needSort := map[types.Object]token.Pos{} // local slices appended to, in map order

	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			checkBodyCall(pass, reportf, n)
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				var rhs ast.Expr
				if len(n.Rhs) == len(n.Lhs) {
					rhs = n.Rhs[i]
				}
				checkStore(pass, reportf, fn, rng, lhs, rhs, n.Tok, needSort)
			}
		case *ast.IncDecStmt:
			checkStore(pass, reportf, fn, rng, n.X, nil, n.Tok, needSort)
		case *ast.SendStmt:
			reportf(n.Pos(), "channel send inside map iteration publishes elements in map order")
		case *ast.GoStmt:
			reportf(n.Pos(), "goroutine launched inside map iteration: scheduling becomes map-order dependent")
		case *ast.DeferStmt:
			reportf(n.Pos(), "defer inside map iteration runs in map order")
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				if tv, ok := pass.TypesInfo.Types[res]; ok && tv.Value != nil {
					continue // constant result: which element matched doesn't show
				}
				reportf(n.Pos(), "return of element-dependent value inside map iteration: which element wins depends on map order")
				break
			}
		}
		return true
	})

	// Every slice that accumulated elements in map order must be sorted
	// somewhere after the loop in the same function.
	for obj, appendPos := range needSort {
		if !sortedAfter(pass, fn, obj, rng.End()) {
			reportf(appendPos, "%s accumulates map keys/values in map order and is never sorted; sort it after the loop or mark the loop //simlint:ordered", obj.Name())
		}
	}
}

func checkBodyCall(pass *framework.Pass, reportf func(token.Pos, string, ...any), call *ast.CallExpr) {
	// Type conversions are pure.
	if tv, ok := pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
		return
	}
	if id, ok := call.Fun.(*ast.Ident); ok {
		if _, isBuiltin := pass.TypesInfo.Uses[id].(*types.Builtin); isBuiltin {
			return
		}
	}
	if path, _, ok := pass.ImportedPath(call.Fun); ok && allowedCallPkgs[path] {
		return
	}
	reportf(call.Pos(), "call with potential side effects inside map iteration: effects occur in map order")
}

// checkStore classifies one written lvalue inside a map-range body.
func checkStore(pass *framework.Pass, reportf func(token.Pos, string, ...any), fn ast.Node, rng *ast.RangeStmt, lhs ast.Expr, rhs ast.Expr, tok token.Token, needSort map[types.Object]token.Pos) {
	if id, ok := lhs.(*ast.Ident); ok && id.Name == "_" {
		return
	}
	root, deref := rootIdent(pass, lhs)
	if root == nil {
		reportf(lhs.Pos(), "write through non-addressable expression inside map iteration")
		return
	}
	obj := pass.TypesInfo.ObjectOf(root)
	if obj == nil {
		return
	}
	if !localTo(fn, obj) {
		reportf(lhs.Pos(), "write to non-local %s inside map iteration: state mutates in map order", root.Name)
		return
	}
	if deref {
		reportf(lhs.Pos(), "write through pointer %s inside map iteration may mutate shared state in map order", root.Name)
		return
	}
	// Float accumulation is order-dependent even on locals: float addition
	// is not associative, so the sum's low bits vary run to run.
	if tok == token.ADD_ASSIGN || tok == token.SUB_ASSIGN || tok == token.MUL_ASSIGN || tok == token.QUO_ASSIGN {
		if tv, ok := pass.TypesInfo.Types[lhs]; ok && isFloat(tv.Type) {
			reportf(lhs.Pos(), "floating-point accumulation over map iteration: float ops are not associative, so the result depends on map order")
			return
		}
	}
	// Appends build the slice in map order: demand a later sort — unless
	// the slice is declared inside the loop body, where it cannot
	// accumulate elements across iterations and so cannot observe map
	// order.
	if _, isIdent := lhs.(*ast.Ident); isIdent && rhs != nil {
		if call, ok := rhs.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "append" {
				if localTo(rng.Body, obj) {
					return
				}
				if _, tracked := needSort[obj]; !tracked {
					needSort[obj] = lhs.Pos()
				}
			}
		}
	}
}

// rootIdent walks an lvalue to its base identifier, noting whether the path
// crosses a pointer dereference (explicit * or implicit via selector/index
// on a pointer).
func rootIdent(pass *framework.Pass, e ast.Expr) (root *ast.Ident, deref bool) {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x, deref
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			deref = true
			e = x.X
		case *ast.SelectorExpr:
			if tv, ok := pass.TypesInfo.Types[x.X]; ok {
				if _, isPtr := tv.Type.Underlying().(*types.Pointer); isPtr {
					deref = true
				}
			}
			e = x.X
		case *ast.IndexExpr:
			if tv, ok := pass.TypesInfo.Types[x.X]; ok {
				if _, isPtr := tv.Type.Underlying().(*types.Pointer); isPtr {
					deref = true
				}
			}
			e = x.X
		default:
			return nil, deref
		}
	}
}

// localTo reports whether obj is declared inside the given function node.
func localTo(fn ast.Node, obj types.Object) bool {
	if fn == nil {
		return false
	}
	if v, ok := obj.(*types.Var); !ok || v.IsField() {
		return false
	}
	return obj.Pos() >= fn.Pos() && obj.Pos() <= fn.End()
}

// enclosingFunc returns the innermost FuncDecl or FuncLit containing pos.
func enclosingFunc(file *ast.File, pos token.Pos) ast.Node {
	var fn ast.Node
	ast.Inspect(file, func(n ast.Node) bool {
		if n == nil {
			return false
		}
		if n.Pos() > pos || n.End() < pos {
			return n.Pos() <= pos && pos <= n.End()
		}
		switch n.(type) {
		case *ast.FuncDecl, *ast.FuncLit:
			fn = n
		}
		return true
	})
	return fn
}

// sortedAfter reports whether obj is passed to a recognized sort call after
// pos within fn.
func sortedAfter(pass *framework.Pass, fn ast.Node, obj types.Object, pos token.Pos) bool {
	if fn == nil {
		return false
	}
	found := false
	ast.Inspect(fn, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < pos || found {
			return !found
		}
		path, name, ok := pass.ImportedPath(call.Fun)
		if !ok || !sortCalls[path][name] || len(call.Args) == 0 {
			return true
		}
		if id, ok := call.Args[0].(*ast.Ident); ok && pass.TypesInfo.ObjectOf(id) == obj {
			found = true
		}
		return !found
	})
	return found
}

func isFloat(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}
