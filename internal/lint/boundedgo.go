package lint

import (
	"go/ast"
	"go/types"
)

// BoundedGoAnalyzer flags `go` statements in the deterministic packages
// that bypass the bounded worker pool (partition.Limiter). Unbounded
// goroutine launches break two contracts at once: the Options.Parallelism
// budget (a run must never hold more workers than the caller granted), and
// the PR 1 determinism scheme, which relies on every concurrent subproblem
// being spawned through a pool slot whose holder derives its own RNG.
//
// A launch is considered pooled when the spawned function literal defers a
// slot release — `defer lim.Release()` (or the historical lowercase
// spelling) — which is the discipline every Limiter user must follow
// anyway. The receiver is type-checked: only a release on a Limiter-shaped
// value (underlying `chan struct{}`) returns a parallelism slot. The CSR
// core's arena pools expose release-style helpers too (putArena), but
// those recycle scratch memory, not worker slots, so a deferred arena
// release alone does not make a launch pooled. Launches of
// named functions, or literals without a deferred slot release, need
// either routing through the pool or an explicit //lint:ignore boundedgo
// waiver stating why the goroutine is outside the parallelism budget.
var BoundedGoAnalyzer = &Analyzer{
	Name: "boundedgo",
	Doc: "flags go statements in deterministic packages that do not release a " +
		"bounded worker-pool slot (partition.Limiter discipline)",
	Run: runBoundedGo,
}

func runBoundedGo(pass *Pass) error {
	if !IsDeterministicPackage(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			if !releasesPoolSlot(pass, g.Call) {
				pass.Reportf(g.Pos(),
					"goroutine launched outside the bounded worker pool; acquire a partition.Limiter slot (TryAcquire / defer Release) or waive with //lint:ignore boundedgo <reason>")
			}
			return true
		})
	}
	return nil
}

// releasesPoolSlot reports whether the spawned call is a function literal
// whose body (at any depth outside nested literals) defers a Release/
// release method call on a Limiter-shaped receiver — the worker-pool
// slot-return discipline.
func releasesPoolSlot(pass *Pass, call *ast.CallExpr) bool {
	lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit)
	if !ok {
		return false
	}
	found := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // a nested goroutine body is its own scope
		case *ast.DeferStmt:
			if sel, ok := ast.Unparen(n.Call.Fun).(*ast.SelectorExpr); ok {
				if (sel.Sel.Name == "Release" || sel.Sel.Name == "release") &&
					limiterShaped(pass, sel.X) {
					found = true
					return false
				}
			}
		}
		return true
	})
	return found
}

// limiterShaped reports whether expr has the partition.Limiter shape: a
// named or literal type whose underlying type is `chan struct{}`. Only a
// release on such a value returns a bounded-parallelism slot; releasing an
// arena (a struct recycling scratch buffers) is memory hygiene, not pool
// discipline. When the pass carries no type information for the expression
// the check degrades to the historical syntactic acceptance, so the
// analyzer never reports false positives on partially-loaded code.
func limiterShaped(pass *Pass, expr ast.Expr) bool {
	if pass.TypesInfo == nil {
		return true
	}
	t := pass.TypesInfo.TypeOf(expr)
	if t == nil {
		return true
	}
	ch, ok := t.Underlying().(*types.Chan)
	if !ok {
		return false
	}
	st, ok := ch.Elem().Underlying().(*types.Struct)
	return ok && st.NumFields() == 0
}
