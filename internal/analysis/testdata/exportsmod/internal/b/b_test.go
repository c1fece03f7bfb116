package b

import (
	"testing"

	"fixture/internal/a"
)

func TestUse(t *testing.T) {
	a.UsedByTestOnly()
	if Use() != 1 {
		t.Fail()
	}
}
