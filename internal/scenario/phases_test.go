package scenario

import (
	"bytes"
	"testing"
)

// A window onto a sender's pattern is, byte for byte, the message fill
// writes, and it is capped: appending to one cannot reach the bytes of
// the windows that overlap it.
func TestWindowIsFill(t *testing.T) {
	const ph, s = 3, 5
	for _, size := range []int{1, 64, 255, 256, 4096} {
		pat := pattern(ph, s, size)
		want := make([]byte, size)
		for m := 0; m < 1024; m++ {
			got := window(pat, m, size)
			fill(want, ph, s, m)
			if !bytes.Equal(got, want) {
				t.Fatalf("size %d: window %d is not fill's message %d", size, m, m)
			}
			if cap(got) != len(got) {
				t.Fatalf("size %d: window %d has cap %d, len %d", size, m, cap(got), len(got))
			}
		}
	}
}
