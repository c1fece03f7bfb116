// The fixture's stand-in for benchmark/: a module of its own whose uses
// count like anyone else's.
package main

import "fixture/internal/a"

func main() { a.UsedByBench() }
