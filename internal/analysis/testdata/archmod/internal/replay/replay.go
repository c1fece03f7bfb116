// Package replay stands in for the recording driver.
package replay

// must fails the replay.
func must(err error) {
	if err != nil {
		panic(err) // want "a workload driver, the job API or a command panics"
	}
}
