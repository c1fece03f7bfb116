// Package scenario stands in for the file format: keys and names come from
// tables, never from a list typed out by hand.
package scenario

import (
	"fmt"
	"strings"
)

var kinds = map[string]bool{"ring": true, "barrier": true}

func strictKeys(m map[string]any, keys ...string) error { return nil } // want "internal/scenario spells a key or name list by hand"

// check derives its lists.
func check(name string, m map[string]any) error {
	if err := strictKeys(m, "at", "kind"); err != nil { // want "internal/scenario spells a key or name list by hand"
		return err
	}
	if !kinds[name] {
		return fmt.Errorf("%q (known: %s)", name, strings.Join(keys(), ", "))
	}
	return fmt.Errorf("%q (known: ring, barrier)", name) // want "internal/scenario spells a key or name list by hand"
}

func keys() []string {
	var out []string
	for k := range kinds {
		out = append(out, k)
	}
	return out
}
