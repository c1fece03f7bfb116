// Package api is the fixture's public package.
package api

import (
	"fixture/internal/a"
	"fixture/internal/b"
)

// Thing is an alias: its methods are API.
type Thing = a.Thing

// Use gives package b a user of its own.
func Use() int { return b.Use() }
