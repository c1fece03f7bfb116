package nmad_test

import (
	"flag"
	"fmt"
	"go/types"
	"os"
	"sort"
	"strings"
	"testing"

	"nmad/internal/analysis"
)

// The public API is a reviewed file: testdata/api.txt lists every
// exported declaration of the two public packages and, under each type
// (aliases resolved), every exported field and method a caller can reach
// through it, with full signatures. Adding, removing or re-typing any of
// it moves a line, and the line is approved by committing
//
//	go test -run TestPublicAPI -update .
var update = flag.Bool("update", false, "rewrite testdata/api.txt")

const apiGolden = "testdata/api.txt"

var publicPackages = []string{"nmad", "nmad/sched"}

func TestPublicAPI(t *testing.T) {
	pkgs, err := analysis.Load(".", ".", "./sched")
	if err != nil {
		t.Fatal(err)
	}
	byPath := map[string]*types.Package{}
	for _, p := range pkgs {
		byPath[p.Path] = p.Types
	}
	var b strings.Builder
	for _, path := range publicPackages {
		if byPath[path] == nil {
			t.Fatalf("package %s not loaded", path)
		}
		renderAPI(&b, byPath[path])
	}
	got := b.String()
	if *update {
		if err := os.WriteFile(apiGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(apiGolden)
	if err != nil {
		t.Fatalf("no API golden (write it with -update and review it): %v", err)
	}
	if diff := lineDiff(string(want), got); diff != "" {
		t.Fatalf("the public API moved away from %s (- committed, + this tree):\n%s"+
			"if the change is intended, regenerate with -update and have the diff reviewed", apiGolden, diff)
	}
}

// renderAPI writes one package: its exported names in sorted order, one
// line each, and indented under every type its exported fields and the
// method set of a pointer to it. Package paths are spelled in full, so a
// signature that mentions an internal package says so.
func renderAPI(b *strings.Builder, pkg *types.Package) {
	qual := func(p *types.Package) string {
		if p == pkg {
			return ""
		}
		return p.Path()
	}
	fmt.Fprintf(b, "package %s\n", pkg.Path())
	scope := pkg.Scope()
	for _, name := range scope.Names() { // sorted
		obj := scope.Lookup(name)
		if !obj.Exported() {
			continue
		}
		switch o := obj.(type) {
		case *types.Const:
			fmt.Fprintf(b, "%s = %s\n", types.ObjectString(o, qual), o.Val().ExactString())
		case *types.TypeName:
			renderType(b, o, qual)
		default:
			fmt.Fprintln(b, types.ObjectString(o, qual))
		}
	}
	b.WriteByte('\n')
}

func renderType(b *strings.Builder, tn *types.TypeName, qual types.Qualifier) {
	t := types.Unalias(tn.Type())
	fmt.Fprintf(b, "type %s", tn.Name())
	if tn.IsAlias() {
		fmt.Fprintf(b, " = %s", types.TypeString(t, qual))
	}
	var members []string
	switch u := t.Underlying().(type) {
	case *types.Struct:
		b.WriteString(" struct")
		for i := 0; i < u.NumFields(); i++ {
			if f := u.Field(i); f.Exported() {
				members = append(members, fmt.Sprintf("\t%s %s", f.Name(), types.TypeString(f.Type(), qual)))
			}
		}
		sort.Strings(members)
	case *types.Interface:
		b.WriteString(" interface")
	default:
		if !tn.IsAlias() || t != t.Underlying() {
			fmt.Fprintf(b, " %s", types.TypeString(u, qual))
		}
	}
	b.WriteByte('\n')
	for _, m := range members {
		fmt.Fprintln(b, m)
	}
	recv := t
	if !types.IsInterface(t) {
		recv = types.NewPointer(t)
	}
	mset := types.NewMethodSet(recv) // sorted by name
	for i := 0; i < mset.Len(); i++ {
		if m := mset.At(i).Obj(); m.Exported() {
			fmt.Fprintf(b, "\t%s\n", types.ObjectString(m, qual))
		}
	}
}

// lineDiff lists the lines only one side has, in order; the file is
// sorted within each block, so that is readable without an LCS.
func lineDiff(want, got string) string {
	count := map[string]int{}
	for _, l := range strings.Split(want, "\n") {
		count[l]++
	}
	var b strings.Builder
	for _, l := range strings.Split(got, "\n") {
		if count[l] > 0 {
			count[l]--
		} else {
			fmt.Fprintf(&b, "+ %s\n", l)
		}
	}
	for _, l := range strings.Split(want, "\n") {
		if count[l] > 0 {
			count[l]--
			fmt.Fprintf(&b, "- %s\n", l)
		}
	}
	return b.String()
}
