package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// modulePrefix scopes sentinel detection to this module's packages: the
// analyzers police nmad's own error contracts, not the stdlib's.
const modulePrefix = "nmad"

// sentinelCmpAnalyzer flags direct comparisons against the repo's
// sentinel errors — `err == ErrProtocol`, `switch err { case ErrSyntax:`
// — and type assertions or type switches on module error types. The
// engine wraps errors as they cross layers (gate → engine → facade), so
// only errors.Is / errors.As match reliably.
var sentinelCmpAnalyzer = &Analyzer{
	Name: "sentinelcmp",
	Doc: "require errors.Is/errors.As instead of ==, != or type switches " +
		"against the module's sentinel errors",
	Run: runSentinelCmp,
}

func runSentinelCmp(pass *Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BinaryExpr:
				checkSentinelCompare(pass, n)
			case *ast.SwitchStmt:
				checkSentinelSwitch(pass, n)
			case *ast.TypeAssertExpr:
				if n.Type != nil { // x.(type) inside a type switch is handled below
					checkErrorAssert(pass, n)
				}
			case *ast.TypeSwitchStmt:
				checkErrorTypeSwitch(pass, n)
			}
			return true
		})
	}
	return nil
}

func checkSentinelCompare(pass *Pass, cmp *ast.BinaryExpr) {
	if cmp.Op != token.EQL && cmp.Op != token.NEQ {
		return
	}
	if isNilExpr(pass, cmp.X) || isNilExpr(pass, cmp.Y) {
		return // err == nil stays idiomatic
	}
	for _, side := range []ast.Expr{cmp.X, cmp.Y} {
		if v := sentinelVar(pass, side); v != nil {
			verb := "errors.Is"
			if cmp.Op == token.NEQ {
				verb = "!errors.Is"
			}
			pass.reportf(cmp.Pos(),
				"direct %s comparison against sentinel %s misses wrapped errors: use %s(err, %s)",
				cmp.Op, v.Name(), verb, v.Name())
			return
		}
	}
}

func checkSentinelSwitch(pass *Pass, sw *ast.SwitchStmt) {
	if sw.Tag == nil {
		return
	}
	if tv, ok := pass.Info.Types[sw.Tag]; !ok || !implementsError(tv.Type) {
		return
	}
	for _, clause := range sw.Body.List {
		cc, ok := clause.(*ast.CaseClause)
		if !ok {
			continue
		}
		for _, e := range cc.List {
			if v := sentinelVar(pass, e); v != nil {
				pass.reportf(e.Pos(),
					"switch case matches sentinel %s by identity and misses wrapped errors: use errors.Is in an if/else chain",
					v.Name())
			}
		}
	}
}

func checkErrorAssert(pass *Pass, ta *ast.TypeAssertExpr) {
	if tv, ok := pass.Info.Types[ta.X]; !ok || !implementsError(tv.Type) {
		return
	}
	if name := moduleErrorType(pass, ta.Type); name != "" {
		pass.reportf(ta.Pos(),
			"type assertion to error type %s misses wrapped errors: use errors.As", name)
	}
}

func checkErrorTypeSwitch(pass *Pass, ts *ast.TypeSwitchStmt) {
	var subject ast.Expr
	switch s := ts.Assign.(type) {
	case *ast.ExprStmt:
		subject = s.X.(*ast.TypeAssertExpr).X
	case *ast.AssignStmt:
		subject = s.Rhs[0].(*ast.TypeAssertExpr).X
	}
	if subject == nil {
		return
	}
	if tv, ok := pass.Info.Types[subject]; !ok || !implementsError(tv.Type) {
		return
	}
	for _, clause := range ts.Body.List {
		cc, ok := clause.(*ast.CaseClause)
		if !ok {
			continue
		}
		for _, te := range cc.List {
			if name := moduleErrorType(pass, te); name != "" {
				pass.reportf(te.Pos(),
					"type switch case on error type %s misses wrapped errors: use errors.As", name)
			}
		}
	}
}

// sentinelVar resolves e to a package-level error variable declared in
// this module, nil otherwise.
func sentinelVar(pass *Pass, e ast.Expr) *types.Var {
	obj := referencedObject(pass.Info, ast.Unparen(e))
	v, ok := obj.(*types.Var)
	if !ok || v.Pkg() == nil || !inModule(v.Pkg()) {
		return nil
	}
	if v.Parent() != v.Pkg().Scope() {
		return nil // not package-level
	}
	if !implementsError(v.Type()) {
		return nil
	}
	return v
}

// moduleErrorType returns the printable name of the named error type
// the type expression denotes, "" when it is not a module error type.
func moduleErrorType(pass *Pass, te ast.Expr) string {
	tv, ok := pass.Info.Types[te]
	if !ok || !tv.IsType() {
		return ""
	}
	t := tv.Type
	named, _ := t.(*types.Named)
	if named == nil {
		if ptr, ok := t.(*types.Pointer); ok {
			named, _ = ptr.Elem().(*types.Named)
		}
	}
	if named == nil || named.Obj().Pkg() == nil || !inModule(named.Obj().Pkg()) {
		return ""
	}
	if !implementsError(t) {
		return ""
	}
	return types.TypeString(t, types.RelativeTo(pass.Pkg))
}

func inModule(pkg *types.Package) bool {
	return pkg.Path() == modulePrefix || strings.HasPrefix(pkg.Path(), modulePrefix+"/")
}

var errorIface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

func implementsError(t types.Type) bool {
	return t != nil && types.Implements(t, errorIface)
}

func isNilExpr(pass *Pass, e ast.Expr) bool {
	tv, ok := pass.Info.Types[e]
	return ok && tv.IsNil()
}
