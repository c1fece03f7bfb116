package scenario

import (
	"bytes"
	"testing"
)

// oracle is the payload rule written one byte at a time: byte i of
// message m from sender s in phase ph. fill and verify must agree with
// it to the byte.
func oracle(ph, s, m, i int) byte { return byte(ph*53 + s*31 + m*7 + i) }

// oracleMessage is the whole message the oracle describes.
func oracleMessage(ph, s, m, size int) []byte {
	msg := make([]byte, size)
	for i := range msg {
		msg[i] = oracle(ph, s, m, i)
	}
	return msg
}

var (
	// oracleSizes straddle the 256-byte chunk on both sides.
	oracleSizes = []int{0, 1, 255, 256, 257, 511, 512, 4096, 131073}
	// oracleMessages start at byte 0, 1, 255 and in between, and wrap
	// past 255 in their first chunk, in their phase term and in their
	// message term.
	oracleMessages = [][3]int{{0, 0, 0}, {0, 0, 183}, {0, 0, 73}, {4, 1, 0}, {5, 0, 0}, {7, 3, 37}, {2, 9, 1 << 20}}
)

func TestFillMatchesOracle(t *testing.T) {
	for _, size := range oracleSizes {
		for _, pm := range oracleMessages {
			ph, s, m := pm[0], pm[1], pm[2]
			buf := bytes.Repeat([]byte{0xa5}, size)
			fill(buf, ph, s, m)
			if want := oracleMessage(ph, s, m, size); !bytes.Equal(buf, want) {
				t.Fatalf("size %d, message %v: fill differs from the oracle", size, pm)
			}
		}
	}
}

// verify accepts exactly the oracle's message: a single flipped byte at
// a chunk edge, at the end or anywhere inside any chunk is one corrupted
// payload.
func TestVerifyMatchesOracle(t *testing.T) {
	for _, size := range oracleSizes {
		for _, pm := range oracleMessages {
			ph, s, m := pm[0], pm[1], pm[2]
			msg := oracleMessage(ph, s, m, size)
			if got := verify(msg, ph, s, m); got != 0 {
				t.Fatalf("size %d, message %v: verify = %d on the oracle's bytes", size, pm, got)
			}
			if size == 0 {
				continue
			}
			offsets := []int{0, 255, 256, 257, size - 1}
			for o := 0; o < size; o += 256 {
				offsets = append(offsets, o+(o/256*37+101)%min(256, size-o))
			}
			for _, o := range offsets {
				if o >= size {
					continue
				}
				msg[o] ^= 1 << (o % 8)
				if got := verify(msg, ph, s, m); got != 1 {
					t.Fatalf("size %d, message %v: byte %d flipped, verify = %d, want 1", size, pm, o, got)
				}
				msg[o] ^= 1 << (o % 8)
			}
		}
	}
}

// received folds the receive's byte count into the check: a buffer that
// served an earlier message and completed short is corrupted even when
// its stale bytes happen to verify. In a ring of 256 messages per round,
// message m of one round and of the next carry the same bytes.
func TestReceivedCountsShortReceives(t *testing.T) {
	const ph, s, m, size = 3, 1, 5, 4096
	buf := make([]byte, size)
	fill(buf, ph, s, m)
	if got := received(buf, size, ph, s, m+256); got != 0 {
		t.Fatalf("full receive of the same bytes: received = %d, want 0", got)
	}
	for _, n := range []int{0, 1, size - 1} {
		if got := received(buf, n, ph, s, m+256); got != 1 {
			t.Fatalf("receive of %d of %d bytes: received = %d, want 1", n, size, got)
		}
	}
	buf[size/2] ^= 1
	if got := received(buf, size, ph, s, m); got != 1 {
		t.Fatalf("full receive with a flipped byte: received = %d, want 1", got)
	}
}

func TestVerifyAndFillAllocateNothing(t *testing.T) {
	buf := make([]byte, 4096)
	if a := testing.AllocsPerRun(100, func() { fill(buf, 1, 2, 3) }); a != 0 {
		t.Fatalf("fill allocates %v objects", a)
	}
	if a := testing.AllocsPerRun(100, func() { verify(buf, 1, 2, 3) }); a != 0 {
		t.Fatalf("verify allocates %v objects", a)
	}
}

// A window onto a sender's pattern is, byte for byte, the oracle's
// message, and it is capped: appending to one cannot reach the bytes of
// the windows that overlap it.
func TestWindowIsFill(t *testing.T) {
	const ph, s = 3, 5
	for _, size := range []int{1, 64, 255, 256, 4096} {
		pat := pattern(ph, s, size)
		for m := 0; m < 1024; m++ {
			got := window(pat, m, size)
			if !bytes.Equal(got, oracleMessage(ph, s, m, size)) {
				t.Fatalf("size %d: window %d is not the oracle's message %d", size, m, m)
			}
			if cap(got) != len(got) {
				t.Fatalf("size %d: window %d has cap %d, len %d", size, m, cap(got), len(got))
			}
		}
	}
}

// The payload check's cost per byte, at the ring's 4 KB message size.
func BenchmarkVerify4KB(b *testing.B) {
	buf := make([]byte, 4096)
	fill(buf, 1, 2, 3)
	b.SetBytes(int64(len(buf)))
	for b.Loop() {
		if verify(buf, 1, 2, 3) != 0 {
			b.Fatal("verify rejects fill's bytes")
		}
	}
}

func BenchmarkFill4KB(b *testing.B) {
	buf := make([]byte, 4096)
	b.SetBytes(int64(len(buf)))
	for b.Loop() {
		fill(buf, 1, 2, 3)
	}
}
