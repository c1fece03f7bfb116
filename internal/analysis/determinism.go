package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"reflect"
	"strings"
)

// deterministicPkgPaths lists the packages whose behavior must be a
// pure function of their inputs: the engine, the virtual-time machine,
// the fabric, MPI, scenarios, the job queue, replay, the recording
// format and the SPI. Byte-identical replay, seeded fault injection and
// the scenario corpus all stand on this property. A package outside the
// list can opt in by carrying a //nmadvet:deterministic comment in any of
// its files.
var deterministicPkgPaths = []string{
	"nmad/internal/core",
	"nmad/internal/sim",
	"nmad/internal/simnet",
	"nmad/internal/madmpi",
	"nmad/internal/scenario",
	"nmad/internal/queue",
	"nmad/internal/replay",
	"nmad/internal/trace",
	"nmad/sched",
}

const deterministicMarker = "//nmadvet:deterministic"

// wallClockFuncs are the time package entry points that read or wait on
// the wall clock — poison in a virtual-time engine.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "After": true,
	"AfterFunc": true, "Tick": true, "NewTimer": true, "NewTicker": true,
	"Sleep": true,
}

// determinismAnalyzer flags, inside the deterministic packages:
// wall-clock calls, any use of math/rand (the engine's seeded sim.RNG is
// the only legal randomness), range statements over maps whose body has
// order-dependent effects (calls, channel sends, or appends to an outer
// slice that is never sorted afterwards), and map-typed struct fields
// that serialize into recordings without a sorted-marshal path.
var determinismAnalyzer = &Analyzer{
	Name: "determinism",
	Doc: "forbid wall-clock reads, math/rand and order-dependent map iteration " +
		"in the packages that must replay byte-identically",
	Run: runDeterminism,
}

func runDeterminism(pass *Pass) error {
	if !deterministicPackage(pass) {
		return nil
	}
	for _, f := range pass.Files {
		if isTestFile(pass.Fset, f) {
			continue // tests may time out on the wall clock
		}
		checkImports(pass, f)
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkWallClock(pass, n)
			case *ast.RangeStmt:
				checkMapRange(pass, f, n)
			case *ast.StructType:
				checkMapFields(pass, n)
			}
			return true
		})
	}
	return nil
}

func deterministicPackage(pass *Pass) bool {
	path := pass.Pkg.Path()
	for _, p := range deterministicPkgPaths {
		if path == p || strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	for _, f := range pass.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if c.Text == deterministicMarker {
					return true
				}
			}
		}
	}
	return false
}

func checkImports(pass *Pass, f *ast.File) {
	for _, imp := range f.Imports {
		path := strings.Trim(imp.Path.Value, `"`)
		if path == "math/rand" || path == "math/rand/v2" {
			pass.reportf(imp.Pos(),
				"import of %s in a deterministic package: use the seeded sim.RNG instead", path)
		}
	}
}

func checkWallClock(pass *Pass, call *ast.CallExpr) {
	fn := calleeFunc(pass.Info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "time" {
		return
	}
	if wallClockFuncs[fn.Name()] {
		pass.reportf(call.Pos(),
			"time.%s reads the wall clock: deterministic packages run on virtual sim.Time only", fn.Name())
	}
}

// calleeFunc resolves the called function or method, nil for builtins,
// conversions and dynamic calls through non-selector expressions.
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}

// checkMapRange flags `range m` over a map when the loop body's effects
// depend on iteration order.
func checkMapRange(pass *Pass, file *ast.File, rs *ast.RangeStmt) {
	tv, ok := pass.Info.Types[rs.X]
	if !ok {
		return
	}
	if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
		return
	}
	var reasons []string
	seen := map[string]bool{}
	addReason := func(r string) {
		if !seen[r] {
			seen[r] = true
			reasons = append(reasons, r)
		}
	}
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SendStmt:
			addReason("sends on a channel")
		case *ast.CallExpr:
			if conv, _ := pass.Info.Types[n.Fun]; conv.IsType() {
				return true // conversion, not a call
			}
			if id, _ := ast.Unparen(n.Fun).(*ast.Ident); id != nil {
				if b, _ := pass.Info.Uses[id].(*types.Builtin); b != nil {
					if b.Name() == "append" {
						checkLoopAppend(pass, file, rs, n, addReason)
						return true
					}
					switch b.Name() {
					case "len", "cap", "delete", "min", "max", "make", "new",
						"copy", "complex", "real", "imag":
						return true // order-free builtins
					}
					addReason("calls " + b.Name())
					return true
				}
			}
			if fn := calleeFunc(pass.Info, n); fn != nil {
				addReason(fmt.Sprintf("calls %s", fn.Name()))
			} else {
				addReason("makes a dynamic call")
			}
		}
		return true
	})
	if len(reasons) > 0 {
		pass.reportf(rs.Pos(),
			"map iteration order is random and the loop body %s: iterate a sorted key "+
				"slice (sortedKeys-style) or annotate //nmadvet:allow determinism(reason)",
			strings.Join(reasons, ", "))
	}
}

// checkLoopAppend flags append calls inside a map-range body whose
// destination outlives the loop and is never sorted afterwards in the
// enclosing function.
func checkLoopAppend(pass *Pass, file *ast.File, rs *ast.RangeStmt, call *ast.CallExpr, addReason func(string)) {
	if len(call.Args) == 0 {
		return
	}
	dst := ast.Unparen(call.Args[0])
	if _, isIndex := dst.(*ast.IndexExpr); isIndex {
		return // m2[k] = append(m2[k], v): per-key accumulation is order-free
	}
	obj := referencedObject(pass.Info, dst)
	if obj == nil {
		addReason("appends to a non-local slice")
		return
	}
	if rs.Body.Pos() <= obj.Pos() && obj.Pos() <= rs.Body.End() {
		return // slice local to the loop body
	}
	if sortedAfter(pass, file, rs, obj) {
		return
	}
	addReason(fmt.Sprintf("appends to %s without sorting it afterwards", obj.Name()))
}

// referencedObject resolves the object an ident or field selector names.
func referencedObject(info *types.Info, e ast.Expr) types.Object {
	switch e := e.(type) {
	case *ast.Ident:
		return info.Uses[e]
	case *ast.SelectorExpr:
		return info.Uses[e.Sel]
	}
	return nil
}

// sortedAfter reports whether, after the range statement and inside the
// same enclosing function, a sort/slices ordering call mentions obj.
func sortedAfter(pass *Pass, file *ast.File, rs *ast.RangeStmt, obj types.Object) bool {
	fn := enclosingFuncBody(file, rs.Pos())
	if fn == nil {
		return false
	}
	found := false
	ast.Inspect(fn, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rs.End() {
			return true
		}
		if callee := calleeFunc(pass.Info, call); callee != nil && isSortCall(callee) {
			for _, arg := range call.Args {
				ast.Inspect(arg, func(m ast.Node) bool {
					if id, _ := m.(*ast.Ident); id != nil && pass.Info.Uses[id] == obj {
						found = true
					}
					return !found
				})
			}
		}
		return true
	})
	return found
}

// isSortCall recognizes the sort and slices package ordering entry
// points (Sort, SortFunc, Strings, Ints, Slice, Stable, ...).
func isSortCall(fn *types.Func) bool {
	if fn.Pkg() == nil {
		return false
	}
	switch fn.Pkg().Path() {
	case "sort", "slices":
	default:
		return false
	}
	switch name := fn.Name(); {
	case strings.Contains(name, "Sort"), strings.Contains(name, "Stable"), strings.Contains(name, "Slice"):
		return true
	case name == "Strings" || name == "Ints" || name == "Float64s":
		return true
	}
	return false
}

// enclosingFuncBody returns the body of the innermost function literal
// or declaration containing pos.
func enclosingFuncBody(file *ast.File, pos token.Pos) *ast.BlockStmt {
	var best *ast.BlockStmt
	ast.Inspect(file, func(n ast.Node) bool {
		if n == nil {
			return false
		}
		if pos < n.Pos() || n.End() <= pos {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncDecl:
			if n.Body != nil {
				best = n.Body
			}
		case *ast.FuncLit:
			best = n.Body
		}
		return true
	})
	return best
}

// checkMapFields flags map-typed struct fields that are marshaled into
// recordings (json-tagged) with a key type encoding/json does not sort:
// basic string and integer keys marshal in sorted order, anything else
// (TextMarshaler keys, floats, structs) has no deterministic order
// guarantee across the recording's lifetime.
func checkMapFields(pass *Pass, st *ast.StructType) {
	for _, field := range st.Fields.List {
		if field.Tag == nil || len(field.Names) == 0 {
			continue
		}
		tag := strings.Trim(field.Tag.Value, "`")
		jsonName, ok := reflect.StructTag(tag).Lookup("json")
		if !ok || strings.HasPrefix(jsonName, "-") {
			continue
		}
		obj := pass.Info.Defs[field.Names[0]]
		if obj == nil {
			continue
		}
		m, isMap := obj.Type().Underlying().(*types.Map)
		if !isMap {
			continue
		}
		if basic, ok := m.Key().Underlying().(*types.Basic); ok {
			if basic.Info()&(types.IsString|types.IsInteger) != 0 {
				continue // encoding/json sorts these keys
			}
		}
		pass.reportf(field.Pos(),
			"serialized map field %s has key type %s with no sorted JSON marshal order: "+
				"key by a string or integer, or marshal through a sorted slice",
			field.Names[0].Name, m.Key())
	}
}
