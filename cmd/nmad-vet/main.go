// nmad-vet machine-checks the invariants the repository's tests can
// only witness: determinism of the replayable packages, errors.Is
// discipline around the typed sentinels, and the SPI no-aliasing rule
// for strategies.
//
// Run it through the go command so test files are covered too:
//
//	go build -o nmad-vet ./cmd/nmad-vet
//	go vet -vettool=$PWD/nmad-vet ./...
//
// or standalone over non-test files: nmad-vet ./...
package main

import "nmad/internal/analysis"

func main() {
	analysis.Main(analysis.Analyzers()...)
}
