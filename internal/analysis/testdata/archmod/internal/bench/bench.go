// Package bench stands in for the figure drivers: no panic, and no tenant
// that is not a scenario's.
package bench

import (
	"fmt"

	"archmod/internal/queue" // want "a figure's tenants are a scenario's tenants"
)

// run drives one point.
func run(err error) error {
	if err != nil {
		panic /* spaced */ (err) // want "a workload driver, the job API or a command panics"
	}
	if err == nil {
		(panic)(fmt.Sprint("x")) // want "a workload driver, the job API or a command panics"
	}
	fmt.Println("panic(", "not a call")
	return queue.Submit(nil)
}

// shadow is a local function called panic, not the builtin.
func shadow() {
	panic := func(v any) {}
	panic("fine")
}
