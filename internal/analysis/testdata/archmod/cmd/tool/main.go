// Command tool is a CLI: its errors are typed too.
package main

import "os"

func main() {
	if len(os.Args) > 3 {
		panic("too many arguments") // want "a workload driver, the job API or a command panics"
	}
}
