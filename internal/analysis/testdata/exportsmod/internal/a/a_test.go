package a

import "testing"

func TestHelper(t *testing.T) { testedHelper() }
