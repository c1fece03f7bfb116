package analysis

import (
	"fmt"
	"go/ast"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// The export rule: an exported package-level identifier or method
// (exported receiver) declared in a non-test file under internal/ stays
// exported only while somebody outside its package needs the name —
//
//   - a non-test file of another package, in either module, names it;
//   - it is a method of a type the public packages alias (those are the
//     lines testdata/api.txt shows a reviewer);
//   - it is a type named in the signature of something live (a caller
//     holds values of it without spelling it);
//   - it is a method whose name an interface written in either module
//     declares, or one of ifaceNames (it is reached through the
//     interface, not by name).
//
// Everything else is unexported or deleted, or listed in the allow file
// with a reason; a line there that excuses nothing is stale and fails
// too. Struct fields are not checked. The question is module-wide, which
// is why it is a test over Load and not a fourth analyzer: the vet unit
// sees one package at a time.
type exportRule struct {
	modules  []string // directories; every package of each is loaded
	internal string   // import-path prefix of the checked packages
	public   []string // import paths of the packages whose aliases are API
	allow    string   // allow file: "<pkg>.<Name>[.<Method>] <reason>" lines
}

// ifaceNames are methods reached through standard-library interfaces.
var ifaceNames = []string{"Error", "String", "Unwrap", "MarshalJSON"}

var nmadExports = exportRule{
	modules:  []string{"../..", "../../benchmark"},
	internal: "nmad/internal/",
	public:   []string{"nmad", "nmad/sched"},
	allow:    "testdata/exports.allow",
}

// loaded keeps what load read, by module list: the export rule and the
// dead-code rule (deadcode_test.go) ask about the same packages.
var loaded = map[string]map[string]*Package{}

// load type-checks every package of the rule's modules, by import path.
func (r exportRule) load() (map[string]*Package, error) {
	key := strings.Join(r.modules, " ")
	if loaded[key] == nil {
		pkgs := map[string]*Package{}
		for _, dir := range r.modules {
			ps, err := Load(dir, "./...")
			if err != nil {
				return nil, err
			}
			for _, p := range ps {
				pkgs[p.Path] = p
			}
		}
		loaded[key] = pkgs
	}
	return loaded[key], nil
}

// check returns one line per violation (unneeded exports and stale or
// malformed allow lines) and, per package, the number of exported
// identifiers the rule covers.
func (r exportRule) check() (findings []string, checked map[string]int, err error) {
	pkgs, err := r.load()
	if err != nil {
		return nil, nil, err
	}

	// What the rule covers, by "<pkg>.<Name>" or "<pkg>.<Type>.<Method>".
	declared := map[string]types.Object{}
	for _, p := range pkgs {
		if !strings.HasPrefix(p.Path, r.internal) {
			continue
		}
		scope := p.Types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if !obj.Exported() {
				continue
			}
			declared[objKey(obj)] = obj
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok {
				for i := 0; i < named.NumMethods(); i++ {
					if m := named.Method(i); m.Exported() {
						declared[objKey(m)] = m
					}
				}
			}
		}
	}

	live := map[string]bool{}
	var work []string
	mark := func(key string) {
		if _, ok := declared[key]; ok && !live[key] {
			live[key] = true
			work = append(work, key)
		}
	}
	markTypes := func(t types.Type) {
		walkNamed(t, func(n *types.Named) { mark(objKey(n.Obj())) })
	}

	byIface := ifaceMethods(pkgs)
	for _, n := range ifaceNames {
		byIface[n] = true
	}
	for _, p := range pkgs {
		for _, obj := range p.Info.Uses {
			if obj.Pkg() != nil && obj.Pkg() != p.Types {
				mark(objKey(obj))
			}
		}
	}
	for _, path := range r.public {
		p := pkgs[path]
		if p == nil {
			return nil, nil, fmt.Errorf("public package %s not loaded", path)
		}
		scope := p.Types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if !obj.Exported() {
				continue
			}
			markTypes(obj.Type())
			if named, ok := types.Unalias(obj.Type()).(*types.Named); ok {
				if _, isType := obj.(*types.TypeName); isType {
					for i := 0; i < named.NumMethods(); i++ {
						mark(objKey(named.Method(i)))
					}
				}
			}
		}
	}
	for key, obj := range declared {
		if fn, ok := obj.(*types.Func); ok && byIface[fn.Name()] && fn.Type().(*types.Signature).Recv() != nil {
			mark(key)
		}
	}
	// A live name keeps the types its signature mentions.
	keepMentioned := func() {
		for len(work) > 0 {
			key := work[len(work)-1]
			work = work[:len(work)-1]
			obj := declared[key]
			if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
				markTypes(tn.Type().Underlying())
			} else {
				markTypes(obj.Type())
			}
		}
	}
	keepMentioned()
	// An excused name is kept, so it keeps what it mentions too.
	allowed, bad := readAllow(r.allow)
	excused := map[string]bool{}
	for key := range allowed {
		if _, ok := declared[key]; ok && !live[key] {
			excused[key] = true
			mark(key)
		}
	}
	keepMentioned()

	findings = append(findings, bad...)
	for key, obj := range declared {
		if live[key] {
			continue
		}
		pos := pkgs[obj.Pkg().Path()].Fset.Position(obj.Pos())
		findings = append(findings, fmt.Sprintf("%s: nothing outside its package names it (%s:%d): unexport it, delete it, or give %s a line with the reason",
			key, filepath.Base(pos.Filename), pos.Line, r.allow))
	}
	for key := range allowed {
		if !excused[key] {
			findings = append(findings, fmt.Sprintf("%s: stale line in %s: the name is gone or no longer needs excusing", key, r.allow))
		}
	}
	sort.Strings(findings)
	checked = map[string]int{}
	for _, obj := range declared {
		checked[obj.Pkg().Path()]++
	}
	return findings, checked, nil
}

// ifaceMethods is the set of method names the interfaces written in pkgs
// declare: a method of such a name is reached through the interface.
func ifaceMethods(pkgs map[string]*Package) map[string]bool {
	names := map[string]bool{}
	for _, p := range pkgs {
		for expr, tv := range p.Info.Types {
			if _, ok := expr.(*ast.InterfaceType); !ok {
				continue
			}
			if it, ok := tv.Type.(*types.Interface); ok {
				for i := 0; i < it.NumMethods(); i++ {
					names[it.Method(i).Name()] = true
				}
			}
		}
	}
	return names
}

// objKey names a package-level object or a method the way the allow file
// does; anything else (fields, locals) gets a key no declaration has.
func objKey(obj types.Object) string {
	if obj.Pkg() == nil {
		return ""
	}
	path := obj.Pkg().Path()
	switch o := obj.(type) {
	case *types.Func:
		if recv := o.Type().(*types.Signature).Recv(); recv != nil {
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			named, ok := t.(*types.Named)
			if !ok || !named.Obj().Exported() {
				return ""
			}
			return path + "." + named.Obj().Name() + "." + o.Name()
		}
	case *types.Var:
		if o.IsField() {
			return ""
		}
	}
	if obj.Parent() != obj.Pkg().Scope() {
		return ""
	}
	return path + "." + obj.Name()
}

// walkNamed calls fn for every named type t mentions: through pointers,
// containers, signatures, exported struct fields and interface methods, and
// type arguments — what a holder of a t can reach without a name.
func walkNamed(t types.Type, fn func(*types.Named)) {
	seen := map[types.Type]bool{}
	var walk func(types.Type)
	tuple := func(tu *types.Tuple) {
		for i := 0; i < tu.Len(); i++ {
			walk(tu.At(i).Type())
		}
	}
	walk = func(t types.Type) {
		if t == nil || seen[t] {
			return
		}
		seen[t] = true
		switch t := t.(type) {
		case *types.Alias:
			walk(types.Unalias(t))
		case *types.Named:
			fn(t)
			for i := 0; i < t.TypeArgs().Len(); i++ {
				walk(t.TypeArgs().At(i))
			}
		case *types.Pointer:
			walk(t.Elem())
		case *types.Slice:
			walk(t.Elem())
		case *types.Array:
			walk(t.Elem())
		case *types.Chan:
			walk(t.Elem())
		case *types.Map:
			walk(t.Key())
			walk(t.Elem())
		case *types.Signature:
			tuple(t.Params())
			tuple(t.Results())
		case *types.Struct:
			for i := 0; i < t.NumFields(); i++ {
				if f := t.Field(i); f.Exported() {
					walk(f.Type())
				}
			}
		case *types.Interface:
			for i := 0; i < t.NumMethods(); i++ {
				if m := t.Method(i); m.Exported() {
					walk(m.Type())
				}
			}
		}
	}
	walk(t)
}

// readAllow parses the allow file into the set of excused keys. A missing
// file is an empty set; a line without a reason is a finding.
func readAllow(path string) (map[string]bool, []string) {
	allowed := map[string]bool{}
	data, err := os.ReadFile(path)
	if err != nil {
		return allowed, nil
	}
	var bad []string
	for i, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, reason, _ := strings.Cut(line, " ")
		if strings.TrimSpace(reason) == "" {
			bad = append(bad, fmt.Sprintf("%s:%d: %s has no reason", path, i+1, key))
			continue
		}
		allowed[key] = true
	}
	return allowed, bad
}

// TestExportsHaveOutsideUsers applies the rule to the repository: both
// modules are always loaded whole, whatever packages the test run names.
func TestExportsHaveOutsideUsers(t *testing.T) {
	findings, checked, err := nmadExports.check()
	if err != nil {
		t.Fatal(err)
	}
	var counts []string
	total := 0
	for path, n := range checked {
		counts = append(counts, fmt.Sprintf("%s %d", strings.TrimPrefix(path, nmadExports.internal), n))
		total += n
	}
	sort.Strings(counts)
	t.Logf("%d exported identifiers under %s checked: %s", total, nmadExports.internal, strings.Join(counts, ", "))
	for _, f := range findings {
		t.Error(f)
	}
}

// The rule, tested on a module small enough to read: testdata/exportsmod
// has one export for each way it can go (see internal/a/a.go there).
func TestExportRuleOnFixture(t *testing.T) {
	rule := exportRule{
		modules:  []string{"testdata/exportsmod", "testdata/exportsmod/benchmark"},
		internal: "fixture/internal/",
		public:   []string{"fixture/api"},
		allow:    "testdata/exportsmod/exports.allow",
	}
	expect := func(name string, rule exportRule, want ...string) {
		t.Helper()
		findings, _, err := rule.check()
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, f := range findings {
			key, _, _ := strings.Cut(f, ": ")
			got = append(got, key)
		}
		if strings.Join(got, "\n") != strings.Join(want, "\n") {
			t.Errorf("%s: findings for\n\t%s\nwant\n\t%s", name, strings.Join(got, "\n\t"), strings.Join(want, "\n\t"))
		}
	}
	// Used only by the other package's test, used by nobody, a method no
	// interface declares; not the one the benchmark stand-in uses, the
	// excused one, the interface method, the aliased type's method or the
	// type that only travels in a signature.
	expect("committed allow file", rule,
		"fixture/internal/a.Dead",
		"fixture/internal/a.Square.Perimeter",
		"fixture/internal/a.UsedByTestOnly")

	// A line for a live name, a line for a name that does not exist and a
	// line without a reason each fail; Kept loses its excuse.
	rule.allow = filepath.Join(t.TempDir(), "exports.allow")
	lines := "fixture/internal/a.UsedByB it has a user\n" +
		"fixture/internal/a.Gone it is not declared\n" +
		"fixture/internal/a.Dead\n"
	if err := os.WriteFile(rule.allow, []byte(lines), 0o644); err != nil {
		t.Fatal(err)
	}
	expect("stale allow file", rule,
		rule.allow+":3",
		"fixture/internal/a.Dead",
		"fixture/internal/a.Gone",
		"fixture/internal/a.Kept",
		"fixture/internal/a.Square.Perimeter",
		"fixture/internal/a.UsedByB",
		"fixture/internal/a.UsedByTestOnly")
}
