package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
)

// spiLeakAnalyzer enforces the SPI aliasing rule: the views the engine
// hands a strategy — the sched.Window, wrapper pointers, the RailInfo
// slice — are valid only for the duration of the call. A strategy that
// stows one in a struct field, a package variable, or a closure that
// outlives the call will read stale or recycled engine state. The docs
// forbid it; this analyzer detects it.
var spiLeakAnalyzer = &Analyzer{
	Name: "spileak",
	Doc: "forbid strategy implementations from retaining sched.Window, " +
		"*sched.Wrapper or []sched.RailInfo beyond the SPI call",
	Run: runSPILeak,
}

// spiTypes are the engine-owned view types resolved from the sched
// package (or from the pass itself when analyzing sched).
type spiTypes struct {
	strategy *types.Interface
	window   types.Type // the Window interface
	wrapper  types.Type // the Wrapper struct
	railinfo types.Type // the RailInfo struct
}

func resolveSPI(pass *Pass) *spiTypes {
	var scope *types.Scope
	if pass.Pkg.Path() == "nmad/sched" {
		scope = pass.Pkg.Scope()
	} else {
		for _, imp := range pass.Pkg.Imports() {
			if imp.Path() == "nmad/sched" {
				scope = imp.Scope()
				break
			}
		}
	}
	if scope == nil {
		return nil
	}
	lookup := func(name string) types.Type {
		if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
			return tn.Type()
		}
		return nil
	}
	s := &spiTypes{
		window:   lookup("Window"),
		wrapper:  lookup("Wrapper"),
		railinfo: lookup("RailInfo"),
	}
	if strat := lookup("Strategy"); strat != nil {
		s.strategy, _ = strat.Underlying().(*types.Interface)
	}
	if s.strategy == nil || s.window == nil || s.wrapper == nil || s.railinfo == nil {
		return nil
	}
	return s
}

// forbidden describes why t must not outlive an SPI call, "" when it
// may. Slices, maps, channels and pointers holding a forbidden type are
// forbidden transitively.
func (s *spiTypes) forbidden(t types.Type) string {
	switch t := t.(type) {
	case *types.Named:
		if types.Identical(t, s.window) {
			return "the sched.Window view"
		}
		return ""
	case *types.Pointer:
		if types.Identical(t.Elem(), s.wrapper) {
			return "a *sched.Wrapper"
		}
		return s.forbidden(t.Elem())
	case *types.Slice:
		if types.Identical(t.Elem(), s.railinfo) {
			return "the []sched.RailInfo view"
		}
		return s.forbidden(t.Elem())
	case *types.Array:
		return s.forbidden(t.Elem())
	case *types.Map:
		return s.forbidden(t.Elem())
	case *types.Chan:
		return s.forbidden(t.Elem())
	}
	return ""
}

func runSPILeak(pass *Pass) error {
	spi := resolveSPI(pass)
	if spi == nil {
		return nil
	}

	// Package-level state of a forbidden type is a leak wherever it
	// lives — no call scope can bound its lifetime.
	strategies := map[*types.Named]bool{}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				switch spec := spec.(type) {
				case *ast.ValueSpec:
					for _, name := range spec.Names {
						v, ok := pass.Info.Defs[name].(*types.Var)
						if !ok {
							continue
						}
						if why := spi.forbidden(v.Type()); why != "" {
							pass.reportf(name.Pos(),
								"package variable %s retains %s: engine views are only valid during the SPI call",
								name.Name, why)
						}
					}
				case *ast.TypeSpec:
					tn, ok := pass.Info.Defs[spec.Name].(*types.TypeName)
					if !ok {
						continue
					}
					named, ok := tn.Type().(*types.Named)
					if !ok {
						continue
					}
					if types.Implements(named, spi.strategy) || types.Implements(types.NewPointer(named), spi.strategy) {
						strategies[named] = true
					}
				}
			}
		}
	}

	// Inside the methods of every Strategy implementation, flag stores
	// of forbidden values into anything that survives the call.
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Body == nil {
				continue
			}
			recv := receiverNamed(pass, fd)
			if recv == nil || !strategies[recv] {
				continue
			}
			checkStrategyMethod(pass, spi, fd)
		}
	}
	return nil
}

func receiverNamed(pass *Pass, fd *ast.FuncDecl) *types.Named {
	if len(fd.Recv.List) != 1 {
		return nil
	}
	tv, ok := pass.Info.Types[fd.Recv.List[0].Type]
	if !ok {
		return nil
	}
	t := tv.Type
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, _ := t.(*types.Named)
	return named
}

func checkStrategyMethod(pass *Pass, spi *spiTypes, fd *ast.FuncDecl) {
	method := fd.Name.Name
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			checkPersistentStores(pass, spi, method, n)
		case *ast.GoStmt:
			if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
				checkEscapingClosure(pass, spi, method, lit, "a goroutine")
			}
		}
		return true
	})
}

// checkPersistentStores flags `x.field = view` and `pkgVar = view`
// (including append forms, whose result type is itself forbidden).
func checkPersistentStores(pass *Pass, spi *spiTypes, method string, as *ast.AssignStmt) {
	for i, lhs := range as.Lhs {
		if i >= len(as.Rhs) {
			break // tuple assignment from a call: nothing forbidden can appear
		}
		dest := persistentDest(pass, lhs)
		if dest == "" {
			continue
		}
		rhs := as.Rhs[i]
		if lit, ok := ast.Unparen(rhs).(*ast.FuncLit); ok {
			checkEscapingClosure(pass, spi, method, lit, dest)
			continue
		}
		tv, ok := pass.Info.Types[rhs]
		if !ok {
			continue
		}
		if why := spi.forbidden(tv.Type); why != "" {
			pass.reportf(as.Pos(),
				"%s stores %s into %s: engine views are only valid during the SPI call — copy the data you need",
				method, why, dest)
		}
	}
}

// persistentDest classifies an assignment destination that outlives the
// call: a struct field or a package-level variable (possibly through an
// index expression). Locals return "".
func persistentDest(pass *Pass, lhs ast.Expr) string {
	lhs = ast.Unparen(lhs)
	for {
		ix, ok := lhs.(*ast.IndexExpr)
		if !ok {
			break
		}
		lhs = ast.Unparen(ix.X)
	}
	switch lhs := lhs.(type) {
	case *ast.SelectorExpr:
		if sel, ok := pass.Info.Selections[lhs]; ok && sel.Kind() == types.FieldVal {
			return fmt.Sprintf("field %s", lhs.Sel.Name)
		}
		// Qualified package-level var (pkg.Var).
		if v, ok := pass.Info.Uses[lhs.Sel].(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return fmt.Sprintf("package variable %s", v.Name())
		}
	case *ast.Ident:
		if v, ok := pass.Info.Uses[lhs].(*types.Var); ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return fmt.Sprintf("package variable %s", v.Name())
		}
	}
	return ""
}

// checkEscapingClosure flags closures that outlive the SPI call while
// capturing a forbidden view from the enclosing scope.
func checkEscapingClosure(pass *Pass, spi *spiTypes, method string, lit *ast.FuncLit, dest string) {
	reported := map[types.Object]bool{}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := pass.Info.Uses[id].(*types.Var)
		if !ok || reported[v] {
			return true
		}
		if v.Pos() >= lit.Pos() && v.Pos() < lit.End() {
			return true // declared inside the closure
		}
		if why := spi.forbidden(v.Type()); why != "" {
			reported[v] = true
			pass.reportf(id.Pos(),
				"%s leaks %s into %s that outlives the SPI call (captured %s)",
				method, why, dest, v.Name())
		}
		return true
	})
}
