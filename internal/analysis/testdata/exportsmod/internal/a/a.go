// Package a declares one export for every way the export rule can go, and
// below them one unexported function for every way the dead-code rule can.
package a

// UsedByB is named by a non-test file of package b: live.
func UsedByB() {}

// UsedByTestOnly is named by b's test file only: a finding.
func UsedByTestOnly() {}

// UsedByBench is named by the benchmark module only: live.
func UsedByBench() {}

// Kept has no user; the fixture's allow file excuses it.
func Kept() {}

// Dead has no user and no excuse: a finding.
func Dead() {}

// Shape is a module interface; b names it.
type Shape interface{ Area() int }

// Square is named by b.
type Square struct{}

// Area is called through Shape, never by name: live.
func (Square) Area() int { return 1 }

// Perimeter is no interface's method and nobody calls it: a finding.
func (Square) Perimeter() int { return 4 }

// Thing is aliased by the public package, so Do is API: live.
type Thing struct{}

func (*Thing) Do() {}

// Result is never named, but Make, which b calls, returns it: live.
type Result struct{}

func Make() Result { usedHelper(); return Result{} }

// usedHelper is called by Make: live.
func usedHelper() {}

// testedHelper is named by a's own test file only: live.
func testedHelper() {}

// deadHelper is referred to by nothing: a finding.
func deadHelper() {}

// loop is referred to by itself only: a finding.
func loop() { loop() }

// sealer is an interface written in the module.
type sealer interface{ sealed() }

// sealed is reached through sealer, never by name: live.
func (Square) sealed() {}

// idle is no interface's method and nobody calls it: a finding.
func (Square) idle() {}
