package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// ArenaPairAnalyzer enforces the pooled-arena ownership discipline from
// PR 5: an arena acquired with a get-style call must leave the acquiring
// scope in exactly one sanctioned way on every path — a put-style release
// (putArena), a deferred release, or an explicit ownership
// handoff (passed bare to a callee, stored bare into a result slot,
// returned bare, or captured whole by a closure). A path that reaches a
// return or the end of the scope with the arena still held leaks a pooled
// value; under sync.Pool that is silent capacity loss, invisible until the
// allocator graphs drift.
//
// Three companion rules keep the release side honest, extending the
// boundedgo receiver-shape check to arenas:
//
//   - a put-style call whose name says arena/scratch must receive exactly
//     one arena-shaped value — releasing anything else is a type confusion
//     the pool cannot detect at runtime;
//   - releasing the same acquired value twice on one straight-line path is
//     reported (a double Put corrupts the pool with an aliased entry);
//   - arena-owned slices (fields of an acquired arena) must not outlive
//     the arena: returning one, storing one into a non-arena structure, or
//     capturing one in a `go` literal is reported — hand off the arena
//     itself, or copy the data out.
//
// The check is intraprocedural and treats a bare handoff as a full
// ownership transfer (the callee is trusted to release or hand off in
// turn), which matches the splitToFit/extractChild discipline: the number
// of live arenas tracks the recursion frontier because every frame either
// releases or forwards. Like the determinism analyzers it is scoped to
// DeterministicPackages.
var ArenaPairAnalyzer = &Analyzer{
	Name: "arenapair",
	Doc: "checks that every arena acquire (get-style call returning an arena/scratch " +
		"value) is released or handed off on all paths, releases match acquires, and " +
		"arena-owned slices do not escape",
	Run: runArenaPair,
}

func runArenaPair(pass *Pass) error {
	if pass.Pkg == nil || !IsDeterministicPackage(pass.Pkg.Path()) {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			for _, scope := range arenaScopes(fd.Body) {
				checkArenaScope(pass, scope)
			}
		}
		checkReleaseShapes(pass, f)
	}
	return nil
}

// arenaScopes returns the function-like bodies in body: the body itself
// plus every function literal inside it. Each literal is its own ownership
// scope — an arena acquired inside a closure must be resolved inside that
// closure (e.g. acquire, store into a result slot, fall out).
func arenaScopes(body *ast.BlockStmt) []*ast.BlockStmt {
	scopes := []*ast.BlockStmt{body}
	ast.Inspect(body, func(n ast.Node) bool {
		if fl, ok := n.(*ast.FuncLit); ok {
			scopes = append(scopes, fl.Body)
		}
		return true
	})
	return scopes
}

// checkArenaScope finds every acquire in one scope (not descending into
// nested literals, which are scopes of their own) and runs the pairing and
// escape checks for it.
func checkArenaScope(pass *Pass, scope *ast.BlockStmt) {
	var acquires []*arenaScan
	var find func(stmts []ast.Stmt)
	findStmt := func(st ast.Stmt) {
		if as, ok := st.(*ast.AssignStmt); ok {
			if v := acquiredArena(pass, as); v != nil {
				acquires = append(acquires, &arenaScan{pass: pass, v: v, acq: as})
			}
		}
	}
	find = func(stmts []ast.Stmt) {
		for _, st := range stmts {
			findStmt(st)
			ast.Inspect(st, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncLit:
					return false
				case ast.Stmt:
					if n != st {
						findStmt(n)
					}
				}
				return true
			})
		}
	}
	find(scope.List)

	for _, sc := range acquires {
		found, resolved := sc.scanFrom(scope.List)
		if found && !resolved {
			sc.pass.Reportf(sc.acq.Pos(),
				"arena %s is acquired here but neither released nor handed off on every path to the end of the scope; pair the acquire with a put-style release, defer one, or transfer ownership explicitly",
				sc.v.Name())
		}
		sc.checkSliceEscapes(scope)
	}
}

// acquiredArena reports the variable bound by an acquire statement: a
// single-value assignment whose right side is a get-style call (optionally
// through a type assertion, the raw sync.Pool form) producing an
// arena-shaped value.
func acquiredArena(pass *Pass, as *ast.AssignStmt) *types.Var {
	if len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return nil
	}
	id, ok := as.Lhs[0].(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	rhs := ast.Unparen(as.Rhs[0])
	if ta, ok := rhs.(*ast.TypeAssertExpr); ok {
		rhs = ast.Unparen(ta.X)
	}
	call, ok := rhs.(*ast.CallExpr)
	if !ok {
		return nil
	}
	name := strings.ToLower(calleeName(call))
	if !strings.HasPrefix(name, "get") && !strings.HasPrefix(name, "acquire") {
		return nil
	}
	obj := pass.TypesInfo.Defs[id]
	if obj == nil {
		obj = pass.TypesInfo.Uses[id]
	}
	v, ok := obj.(*types.Var)
	if !ok || !arenaShaped(v.Type()) {
		return nil
	}
	return v
}

// calleeName returns the simple name of a call's callee ("" when the
// callee is not a plain identifier or selector).
func calleeName(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}

// arenaShaped reports whether t is (a pointer to) a named type whose name
// marks it as pooled scratch memory — the levelArena / fmScratch family.
// The CSR graph views (csrGraph, csrLevel) deliberately do not match: they
// are borrowed slices into an arena, not the owned arena itself.
func arenaShaped(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	name := strings.ToLower(named.Obj().Name())
	return strings.Contains(name, "arena") || strings.Contains(name, "scratch")
}

// releaseShapedName reports whether a callee name is an arena release
// (putArena, releaseScratch, ...): a put/release/free verb
// naming arena or scratch memory.
func releaseShapedName(name string) bool {
	n := strings.ToLower(name)
	if !strings.HasPrefix(n, "put") && !strings.HasPrefix(n, "release") && !strings.HasPrefix(n, "free") {
		return false
	}
	return strings.Contains(n, "arena") || strings.Contains(n, "scratch")
}

// checkReleaseShapes enforces the receiver-shape half of the contract
// independently of any acquire: every release-shaped call must take
// exactly one arena-shaped argument.
func checkReleaseShapes(pass *Pass, f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if _, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr); isSel {
			return true // method-style releases are typed by their receiver
		}
		name := calleeName(call)
		if !releaseShapedName(name) {
			return true
		}
		if len(call.Args) != 1 || !arenaShaped(pass.TypesInfo.TypeOf(call.Args[0])) {
			pass.Reportf(call.Pos(),
				"release-shaped call %s does not take a single arena/scratch value; the release receiver must be the acquired arena itself",
				name)
		}
		return true
	})
}

// arenaScan tracks one acquired arena variable through its scope.
type arenaScan struct {
	pass     *Pass
	v        *types.Var
	acq      ast.Stmt
	released bool // resolution was a put-style release (enables double-release detection)
}

// scanFrom locates the acquire statement inside stmts — descending into
// nested control flow but not into function literals — and then checks the
// statements after it. When the acquire sits in a nested block that falls
// through still holding the arena, scanning continues with the statements
// after the enclosing one, mirroring actual control flow.
func (s *arenaScan) scanFrom(stmts []ast.Stmt) (found, resolved bool) {
	for i, st := range stmts {
		if st == s.acq {
			return true, s.scanBlock(stmts[i+1:])
		}
		if f, r := s.scanFromNested(st); f {
			if r {
				return true, true
			}
			return true, s.scanBlock(stmts[i+1:])
		}
	}
	return false, false
}

// scanFromNested descends one statement's sub-blocks looking for the
// acquire.
func (s *arenaScan) scanFromNested(st ast.Stmt) (found, resolved bool) {
	switch st := st.(type) {
	case *ast.BlockStmt:
		return s.scanFrom(st.List)
	case *ast.LabeledStmt:
		return s.scanFromNested(st.Stmt)
	case *ast.IfStmt:
		if f, r := s.scanFrom(st.Body.List); f {
			return f, r
		}
		if st.Else != nil {
			return s.scanFromNested(st.Else)
		}
	case *ast.ForStmt:
		return s.scanFrom(st.Body.List)
	case *ast.RangeStmt:
		return s.scanFrom(st.Body.List)
	case *ast.SwitchStmt:
		return s.scanFromClauses(st.Body)
	case *ast.TypeSwitchStmt:
		return s.scanFromClauses(st.Body)
	case *ast.SelectStmt:
		return s.scanFromClauses(st.Body)
	}
	return false, false
}

func (s *arenaScan) scanFromClauses(body *ast.BlockStmt) (found, resolved bool) {
	for _, clause := range body.List {
		switch c := clause.(type) {
		case *ast.CaseClause:
			if f, r := s.scanFrom(c.Body); f {
				return f, r
			}
		case *ast.CommClause:
			if f, r := s.scanFrom(c.Body); f {
				return f, r
			}
		}
	}
	return false, false
}

// scanBlock checks the statements that execute after the acquire within
// one block. It returns true when the arena is resolved (released or
// handed off) on the fallthrough exit. Returns that leak the arena are
// reported at the return site; a branch whose paths all resolve or return
// counts as resolved. After a put-style release, a second sequential
// release of the same value is reported as a double release.
func (s *arenaScan) scanBlock(stmts []ast.Stmt) bool {
	resolved := false
	for _, st := range stmts {
		if resolved {
			if s.released && s.stmtReleasesV(st) {
				s.pass.Reportf(st.Pos(),
					"arena %s is released again on a path where it was already released; a double put corrupts the pool with an aliased entry",
					s.v.Name())
			}
			continue
		}
		switch st := st.(type) {
		case *ast.ReturnStmt:
			for _, r := range st.Results {
				if s.isV(r) {
					return true // ownership returned to the caller
				}
			}
			s.pass.Reportf(st.Pos(),
				"return leaks arena %s (acquired at line %d); release it or hand ownership off before returning",
				s.v.Name(), s.pass.Fset.Position(s.acq.Pos()).Line)
			resolved = true // the leak is reported; do not cascade
		case *ast.IfStmt:
			rBody := s.scanBlock(st.Body.List)
			rElse := false
			switch e := st.Else.(type) {
			case *ast.BlockStmt:
				rElse = s.scanBlock(e.List)
			case *ast.IfStmt:
				rElse = s.scanBlock([]ast.Stmt{e})
			}
			resolved = rBody && st.Else != nil && rElse
		case *ast.BlockStmt:
			resolved = s.scanBlock(st.List)
		case *ast.LabeledStmt:
			if s.stmtResolvesV(st) {
				resolved = true
			}
		default:
			if s.stmtResolvesV(st) {
				resolved = true
				s.released = s.stmtReleasesV(st)
			}
		}
	}
	return resolved
}

// isV reports whether expr is a bare reference to the tracked variable.
func (s *arenaScan) isV(expr ast.Expr) bool {
	id, ok := ast.Unparen(expr).(*ast.Ident)
	return ok && s.pass.TypesInfo.Uses[id] == s.v
}

// stmtResolvesV reports whether the statement transfers or releases
// ownership of v: v passed bare as a call argument (release or handoff),
// v assigned bare to another location, v returned bare, v placed bare in a
// composite literal, or v captured by a function literal (the closure
// becomes the owner). Method calls *on* v (v.grow(n)) are plain uses, not
// transfers.
func (s *arenaScan) stmtResolvesV(st ast.Stmt) bool {
	found := false
	ast.Inspect(st, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			for _, arg := range n.Args {
				if s.isV(arg) {
					found = true
					return false
				}
			}
		case *ast.AssignStmt:
			for _, r := range n.Rhs {
				if s.isV(r) {
					found = true
					return false
				}
			}
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				if s.isV(r) {
					found = true
					return false
				}
			}
		case *ast.CompositeLit:
			for _, e := range n.Elts {
				v := e
				if kv, ok := e.(*ast.KeyValueExpr); ok {
					v = kv.Value
				}
				if s.isV(v) {
					found = true
					return false
				}
			}
		case *ast.FuncLit:
			ast.Inspect(n.Body, func(nn ast.Node) bool {
				if id, ok := nn.(*ast.Ident); ok && s.pass.TypesInfo.Uses[id] == s.v {
					found = true
				}
				return !found
			})
			return false
		}
		return true
	})
	return found
}

// stmtReleasesV reports whether the statement put-releases v specifically:
// a release-shaped function call with v as the argument, or a
// Release/Put/Free/Close method call on v.
func (s *arenaScan) stmtReleasesV(st ast.Stmt) bool {
	found := false
	ast.Inspect(st, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		switch fun := ast.Unparen(call.Fun).(type) {
		case *ast.Ident:
			if releaseShapedName(fun.Name) && len(call.Args) == 1 && s.isV(call.Args[0]) {
				found = true
			}
		case *ast.SelectorExpr:
			switch fun.Sel.Name {
			case "Release", "Put", "Free", "Close":
				if s.isV(fun.X) {
					found = true
				}
			default:
				if releaseShapedName(fun.Sel.Name) && len(call.Args) == 1 && s.isV(call.Args[0]) {
					found = true
				}
			}
		}
		return !found
	})
	return found
}

// checkSliceEscapes reports arena-owned slices of v that outlive the
// arena: returned bare (or re-sliced) to the caller, stored into a
// non-arena structure, or captured by a `go` function literal. Reading
// elements (v.buf[i]) and copying out (copy(dst, v.buf)) are fine; it is
// the slice header sharing the arena's backing array that must not
// escape.
func (s *arenaScan) checkSliceEscapes(scope *ast.BlockStmt) {
	goLits := make(map[*ast.FuncLit]bool)
	ast.Inspect(scope, func(n ast.Node) bool {
		if g, ok := n.(*ast.GoStmt); ok {
			if fl, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit); ok {
				goLits[fl] = true
			}
		}
		return true
	})

	// Walk with a goroutine-context flag: inside a `go` literal (at any
	// depth) every owned-slice reference is a capture; outside, returns
	// and stores are the escape routes.
	var walk func(n ast.Node, goCtx bool)
	walk = func(n ast.Node, goCtx bool) {
		ast.Inspect(n, func(nn ast.Node) bool {
			switch nn := nn.(type) {
			case *ast.FuncLit:
				walk(nn.Body, goCtx || goLits[nn])
				return false
			case *ast.SelectorExpr:
				if goCtx {
					if sel := s.ownedSlice(nn); sel != nil {
						s.pass.Reportf(nn.Pos(),
							"arena-owned slice %s is captured by a goroutine; the goroutine can outlive the arena release — pass a copy or hand off the arena",
							s.fieldName(sel))
						return false
					}
				}
			case *ast.ReturnStmt:
				if goCtx {
					break
				}
				for _, r := range nn.Results {
					if sel := s.ownedSlice(r); sel != nil {
						s.pass.Reportf(r.Pos(),
							"arena-owned slice %s escapes via return; the backing array dies with the arena — copy the data out or hand off the arena itself",
							s.fieldName(sel))
					}
				}
			case *ast.AssignStmt:
				if goCtx {
					break
				}
				for i, r := range nn.Rhs {
					sel := s.ownedSlice(r)
					if sel == nil || i >= len(nn.Lhs) {
						continue
					}
					if s.escapingStore(nn.Lhs[i]) {
						s.pass.Reportf(r.Pos(),
							"arena-owned slice %s escapes via store into a non-arena structure; copy the data out or hand off the arena itself",
							s.fieldName(sel))
					}
				}
			}
			return true
		})
	}
	for _, st := range scope.List {
		walk(st, false)
	}
}

// ownedSlice returns the v.field selector when expr is a bare (or
// re-sliced) slice-typed field of the tracked arena, nil otherwise.
func (s *arenaScan) ownedSlice(expr ast.Expr) *ast.SelectorExpr {
	e := ast.Unparen(expr)
	if sl, ok := e.(*ast.SliceExpr); ok {
		e = ast.Unparen(sl.X)
	}
	sel, ok := e.(*ast.SelectorExpr)
	if !ok || !s.isV(sel.X) {
		return nil
	}
	t := s.pass.TypesInfo.TypeOf(sel)
	if t == nil {
		return nil
	}
	if _, ok := t.Underlying().(*types.Slice); !ok {
		return nil
	}
	return sel
}

// fieldName renders v.field for diagnostics.
func (s *arenaScan) fieldName(sel *ast.SelectorExpr) string {
	return s.v.Name() + "." + sel.Sel.Name
}

// escapingStore reports whether an assignment target moves an arena-owned
// slice out of the arena's custody: a store into a field or element of
// something that is neither the arena itself nor another arena. Plain
// local variables are in-scope aliases and allowed — the pairing check
// already guarantees the arena outlives the scope's use of them.
func (s *arenaScan) escapingStore(lhs ast.Expr) bool {
	switch l := ast.Unparen(lhs).(type) {
	case *ast.Ident:
		if obj := s.pass.TypesInfo.Uses[l]; obj != nil {
			if _, isPkgLevel := obj.(*types.Var); isPkgLevel && obj.Parent() == obj.Pkg().Scope() {
				return true // package-level variable outlives everything
			}
		}
		return false
	case *ast.SelectorExpr:
		return !s.isV(l.X) && !arenaShaped(s.pass.TypesInfo.TypeOf(l.X))
	case *ast.IndexExpr:
		return !arenaShaped(s.pass.TypesInfo.TypeOf(l.X))
	case *ast.StarExpr:
		return true
	}
	return false
}
