// Package b is the other package: the outside user.
package b

import "fixture/internal/a"

// Use names what package a keeps exported for b.
func Use() int {
	a.UsedByB()
	_ = a.Make()
	var s a.Shape = a.Square{}
	return s.Area()
}
