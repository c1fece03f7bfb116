package a

import "testing"

func TestHelper(t *testing.T) { testedHelper() }

func TestFill(t *testing.T) {
	var r record
	sink(&r)
	if r.testRead != 3 {
		t.Fail()
	}
}
