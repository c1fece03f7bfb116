package nmad_test

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/constant"
	"go/types"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"unicode"

	"nmad"
	"nmad/internal/analysis"
	"nmad/internal/bench"
)

// The registries as the package finds them, read before any test of this
// package registers a strategy or an algorithm of its own.
var (
	builtinStrategies = nmad.Strategies()
	builtinCollAlgos  = func() map[nmad.CollKind][]string {
		m := map[nmad.CollKind][]string{}
		for _, kind := range nmad.CollKinds() {
			m[kind] = nmad.CollAlgoNames(kind)
		}
		return m
	}()
)

// TestReadmeNamesTheRegistries: the lists README types by hand that have
// a registry behind them cannot drift from it. Every strategy, rail
// profile, collective kind and algorithm, figure id and nmad-vet analyzer
// must appear in backticks somewhere in README.md, and every flag a
// command under cmd/ defines must appear as -name; a new registration or
// flag fails here until the prose names it. (The scenario vocabulary has
// its own test, TestReadmeNamesTheSchema.)
func TestReadmeNamesTheRegistries(t *testing.T) {
	raw, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	readme := string(raw)
	demand := func(what string, names ...string) {
		for _, name := range names {
			if !strings.Contains(readme, "`"+name+"`") {
				t.Errorf("README.md does not name %s `%s`", what, name)
			}
		}
	}
	demand("the strategy", builtinStrategies...)
	for _, p := range nmad.Profiles() {
		demand("the rail profile", p.Name)
	}
	for _, kind := range nmad.CollKinds() {
		demand("the collective kind", string(kind))
		demand("the "+string(kind)+" algorithm", builtinCollAlgos[kind]...)
	}
	for _, fig := range bench.Figures() {
		demand("the figure id", fig.ID)
	}
	for _, a := range analysis.Analyzers() {
		demand("the nmad-vet analyzer", a.Name)
	}
	for cmd, names := range cliFlags(t) {
		for _, name := range names {
			// A whole word: `per-strategy` does not name -strategy.
			if !regexp.MustCompile(`(^|[^\w-])-` + regexp.QuoteMeta(name) + `([^\w-]|$)`).MatchString(readme) {
				t.Errorf("README.md does not name the %s flag -%s", cmd, name)
			}
		}
	}
}

// cliFlags returns the flags the commands under cmd/ define through
// package flag — flag.String(...) and fs.Bool(...) alike — by command
// import path. A definer is a function or method of package flag with a
// name and a usage parameter; its name argument must be a constant.
func cliFlags(t *testing.T) map[string][]string {
	pkgs, err := analysis.Load(".", "./cmd/...")
	if err != nil {
		t.Fatal(err)
	}
	flags := map[string][]string{}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func)
				if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "flag" {
					return true
				}
				params := fn.Type().(*types.Signature).Params()
				nameAt, usage := -1, false
				for i := range params.Len() {
					switch params.At(i).Name() {
					case "name":
						nameAt = i
					case "usage":
						usage = true
					}
				}
				if nameAt < 0 || !usage {
					return true
				}
				tv := pkg.Info.Types[call.Args[nameAt]]
				if tv.Value == nil || tv.Value.Kind() != constant.String {
					t.Errorf("%s: flag name is not a constant", pkg.Fset.Position(call.Pos()))
					return true
				}
				flags[pkg.Path] = append(flags[pkg.Path], constant.StringVal(tv.Value))
				return true
			})
		}
	}
	if len(flags) == 0 {
		t.Fatal("found no flag definitions under cmd/")
	}
	return flags
}

// TestDocsCiteWhatExists: the prose that tells a reader what to run and
// where to look — README.md, every package's doc.go and the verify skill
// — cites only what exists. A Test, Benchmark or Fuzz name must be
// declared by some test file (a trailing * makes it a prefix). A
// repository path — a word with a slash whose first element is an entry
// of the repository root — must name a file or directory, with a <name>
// placeholder standing for any one path element, a leading ./ and a
// trailing / or /... dropped, and a :line suffix ignored.
func TestDocsCiteWhatExists(t *testing.T) {
	docs := []string{"README.md", ".claude/skills/verify/SKILL.md"}
	declared := map[string]bool{}
	decl := regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)\w*)\(`)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")):
			return filepath.SkipDir // fixtures, and what git or a build keeps
		case d.Name() == "doc.go":
			docs = append(docs, path)
		case strings.HasSuffix(path, "_test.go"):
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			for _, m := range decl.FindAllStringSubmatch(string(src), -1) {
				declared[m[1]] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	roots := map[string]bool{}
	for _, e := range entries {
		roots[e.Name()] = true
	}
	cited := regexp.MustCompile(`\b((?:Test|Benchmark|Fuzz)[A-Z0-9_]\w*)(\*?)`)
	for _, doc := range docs {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(raw), "\n") {
			for _, m := range cited.FindAllStringSubmatch(line, -1) {
				if !isDeclared(declared, m[1], m[2] == "*") {
					t.Errorf("%s:%d cites %s, which no test file declares", doc, i+1, m[0])
				}
			}
			words := strings.FieldsFunc(line, func(r rune) bool { return unicode.IsSpace(r) || r == '`' })
			for _, word := range words {
				path, ok := repoPath(word, roots)
				if !ok {
					continue
				}
				if found, _ := filepath.Glob(path); len(found) == 0 {
					t.Errorf("%s:%d cites %s, which does not exist", doc, i+1, word)
				}
			}
		}
	}
}

// isDeclared reports whether name, or with prefix any name it begins,
// is among the declared test functions.
func isDeclared(declared map[string]bool, name string, prefix bool) bool {
	if !prefix {
		return declared[name]
	}
	for d := range declared {
		if strings.HasPrefix(d, name) {
			return true
		}
	}
	return false
}

var (
	lineSuffix  = regexp.MustCompile(`:\d+(-\d+)?$`)
	placeholder = regexp.MustCompile(`<[^>/]*>`)
)

// repoPath turns a word of prose into the glob of the repository path it
// cites, if it cites one.
func repoPath(word string, roots map[string]bool) (string, bool) {
	p := strings.TrimRight(strings.TrimLeft(word, `("'[`), `,;.:)]"'`)
	p = lineSuffix.ReplaceAllString(strings.TrimPrefix(p, "./"), "")
	p = strings.TrimSuffix(strings.TrimSuffix(p, "/..."), "/")
	first, _, ok := strings.Cut(p, "/")
	if !ok || !roots[first] {
		return "", false
	}
	return placeholder.ReplaceAllString(p, "*"), true
}

// TestGateTableNamesTheBenchmark: every row of .github/gates.tsv, the
// table of CI's allocation gates, names a workload and an end-to-end
// metric that BENCHMARK.json declares, a finite bound above 0 and the
// message a breach prints, and no gate appears twice. A typo in the
// table fails here, not only in the CI step that runs .github/gates.sh.
func TestGateTableNamesTheBenchmark(t *testing.T) {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	workloads, metrics := map[string]bool{}, map[string]bool{}
	for _, w := range spec.Workloads {
		workloads[w.Name] = true
	}
	for _, m := range spec.EndToEnd {
		metrics[m.Name] = true
	}

	table, err := os.ReadFile(".github/gates.tsv")
	if err != nil {
		t.Fatal(err)
	}
	rows := strings.Split(strings.TrimSuffix(string(table), "\n"), "\n")
	seen := map[[2]string]bool{}
	for i, row := range rows {
		at := fmt.Sprintf(".github/gates.tsv:%d", i+1)
		f := strings.Split(row, "\t")
		if len(f) != 4 {
			t.Errorf("%s has %d tab-separated fields, want 4: workload, metric, bound, message", at, len(f))
			continue
		}
		workload, metric, bound, message := f[0], f[1], f[2], f[3]
		if !workloads[workload] {
			t.Errorf("%s: %q is not a workload of BENCHMARK.json", at, workload)
		}
		if !metrics[metric] {
			t.Errorf("%s: %q is not an end-to-end metric of BENCHMARK.json", at, metric)
		}
		if b, err := strconv.ParseFloat(bound, 64); err != nil || math.IsInf(b, 0) || math.IsNaN(b) || b <= 0 {
			t.Errorf("%s: bound %q is not a finite number above 0", at, bound)
		}
		if strings.TrimSpace(message) == "" {
			t.Errorf("%s: the breach message is empty", at)
		}
		if key := [2]string{workload, metric}; seen[key] {
			t.Errorf("%s: %s %s is gated twice", at, workload, metric)
		} else {
			seen[key] = true
		}
	}
	if len(seen) == 0 {
		t.Error(".github/gates.tsv holds no gate")
	}

	ci, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(ci), "bash .github/gates.sh") {
		t.Error(".github/workflows/ci.yml does not run bash .github/gates.sh")
	}
}

// TestDocsCarryNoChangelog: the documents TestDocsCiteWhatExists checks
// describe what the code does and where it is measured, not the history
// of its numbers, which CHANGES.md keeps. A numeric before → after
// figure — a digit, an arrow (→ or ->), then a digit or ~ — fails;
// prose arrows such as "Submit → Elect" do not.
func TestDocsCarryNoChangelog(t *testing.T) {
	docs := []string{"README.md", ".claude/skills/verify/SKILL.md"}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != "." && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")):
			return filepath.SkipDir
		case d.Name() == "doc.go":
			docs = append(docs, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	figure := regexp.MustCompile(`\d\s*(→|->)\s*[\d~]`)
	for _, doc := range docs {
		raw, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(raw), "\n") {
			if m := figure.FindString(line); m != "" {
				t.Errorf("%s:%d carries a before → after figure (%q); CHANGES.md keeps the history", doc, i+1, m)
			}
		}
	}
}
