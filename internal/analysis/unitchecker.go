package analysis

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

// This file is nmad-vet's driver: a stdlib-only re-implementation of
// the narrow slice of x/tools' unitchecker protocol the go command
// speaks to `go vet -vettool` binaries, plus a standalone mode so
// `nmad-vet ./...` works without the go command fronting it.
//
// Protocol (observed from cmd/go): the tool is probed once with -flags
// (it prints a JSON array of the flags it accepts) and once with
// -V=full (it prints "<name> version <id>" where id fingerprints the
// binary, feeding the go command's action cache). Then, for every
// package in the dependency graph, the tool runs with a single
// <unit>.cfg argument. Dependency units carry VetxOnly=true and only
// want their facts file written; nmad-vet has no cross-package facts,
// so those invocations just touch the output and exit. Target units
// carry the file set, the import map and the compiler export data of
// every dependency — everything needed to type-check without network,
// GOPATH or a second build.

// vetConfig mirrors the JSON the go command writes to <unit>.cfg.
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	NonGoFiles                []string
	IgnoredFiles              []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// Main is the entry point of cmd/nmad-vet. It never returns.
func Main(analyzers ...*Analyzer) {
	progname := os.Args[0]
	args := os.Args[1:]

	if len(args) == 1 {
		switch {
		case args[0] == "-V=full":
			printVersion(progname)
			os.Exit(0)
		case args[0] == "-flags":
			// No tool-specific flags: report an empty flag set.
			fmt.Println("[]")
			os.Exit(0)
		case args[0] == "help", args[0] == "-h", args[0] == "--help":
			printHelp(progname, analyzers)
			os.Exit(0)
		case strings.HasSuffix(args[0], ".cfg"):
			os.Exit(runUnit(args[0], analyzers))
		}
	}

	if len(args) == 0 {
		printHelp(progname, analyzers)
		os.Exit(2)
	}
	// Standalone mode: treat the arguments as package patterns.
	os.Exit(runStandalone(os.Stderr, ".", args, analyzers))
}

func printVersion(progname string) {
	// The go command fingerprints vet tools by running them with
	// -V=full and hashing the reported id into its action cache; the
	// output must be "<name> version <id>". Hash the binary itself so
	// rebuilding nmad-vet invalidates stale vet results.
	id := "unknown"
	if exe, err := os.Executable(); err == nil {
		if f, err := os.Open(exe); err == nil {
			h := sha256.New()
			if _, err := io.Copy(h, f); err == nil {
				id = fmt.Sprintf("%x", h.Sum(nil)[:16])
			}
			f.Close()
		}
	}
	fmt.Printf("%s version devel buildID=%s\n", progname, id)
}

func printHelp(progname string, analyzers []*Analyzer) {
	fmt.Fprintf(os.Stderr, "%s: nmad's invariant checker\n\n", progname)
	fmt.Fprintf(os.Stderr, "usage: go vet -vettool=%s ./...   (preferred: covers test files)\n", progname)
	fmt.Fprintf(os.Stderr, "       %s ./...                   (standalone: non-test files only)\n\n", progname)
	fmt.Fprintln(os.Stderr, "analyzers:")
	for _, a := range analyzers {
		fmt.Fprintf(os.Stderr, "  %-12s %s\n", a.Name, a.Doc)
	}
	fmt.Fprintf(os.Stderr, "\nsuppress one finding with //nmadvet:allow <analyzer>(<reason>)\n")
}

// runUnit handles one vet unit config; returns the process exit code.
func runUnit(cfgPath string, analyzers []*Analyzer) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "nmad-vet: %v\n", err)
		return 1
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "nmad-vet: parsing %s: %v\n", cfgPath, err)
		return 1
	}

	// The go command expects the facts file to exist afterwards, even
	// though nmad-vet keeps no cross-package facts.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, []byte{}, 0o666); err != nil {
			fmt.Fprintf(os.Stderr, "nmad-vet: %v\n", err)
			return 1
		}
	}
	if cfg.VetxOnly {
		return 0
	}

	pkg, err := typeCheck(cfg.ImportPath, cfg.GoFiles, cfg.ImportMap, cfg.PackageFile)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fmt.Fprintf(os.Stderr, "nmad-vet: %v\n", err)
		return 1
	}
	diags := runAnalyzers(pkg, analyzers)
	for _, d := range diags {
		fmt.Fprintln(os.Stderr, d)
	}
	if len(diags) > 0 {
		return 2
	}
	return 0
}

// runStandalone loads patterns from dir, runs the suite, and prints
// findings to w. It returns 0 when clean, 2 on findings, 1 on load
// errors. Unlike the vet path it analyzes only non-test files (export
// data for test variants is not materialized by `go list -export`).
func runStandalone(w io.Writer, dir string, patterns []string, analyzers []*Analyzer) int {
	pkgs, err := Load(dir, patterns...)
	if err != nil {
		fmt.Fprintf(w, "nmad-vet: %v\n", err)
		return 1
	}
	total := 0
	for _, pkg := range pkgs {
		for _, d := range runAnalyzers(pkg, analyzers) {
			fmt.Fprintln(w, d)
			total++
		}
	}
	if total > 0 {
		fmt.Fprintf(w, "nmad-vet: %d finding(s)\n", total)
		return 2
	}
	return 0
}
