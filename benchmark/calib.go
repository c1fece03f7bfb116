package main

import (
	"slices"
	"time"
)

// The calibration kernel is the yardstick host cost is divided by: a
// fixed amount of work whose wall time moves with the machine (clock
// speed, neighbours on a shared box) the way the simulator's does. It is
// half compute (xorshift fill + sort) and half memory (copy + clear of a
// buffer well past the last-level cache), because the workloads range
// from branchy event handling to multi-megabyte payload copies; a
// compute-only kernel tracked the bulk workload poorly. Its timed part
// allocates nothing.
const (
	calibWords     = 32 << 10
	calibSortReps  = 10
	calibBufBytes  = 16 << 20
	calibCopyReps  = 12
	calibSeedState = 0x9e3779b97f4a7c15

	// calibNominal is what one run of the kernel takes on the box the
	// benchmark was written on when nothing else is running. Set-up time
	// is reported in seconds of that machine: wall seconds scaled by
	// calibNominal over the kernel's time during the run.
	calibNominal = 50 * time.Millisecond
)

type calibrator struct {
	words    []uint64
	src, dst []byte
	sink     uint64
	// sortReps and copyReps are the kernel's two halves; only a scaled-
	// down run (the tests) shrinks them.
	sortReps, copyReps int
}

func newCalibrator(scale float64) *calibrator {
	c := &calibrator{
		words:    make([]uint64, calibWords),
		src:      make([]byte, calibBufBytes),
		dst:      make([]byte, calibBufBytes),
		sortReps: scaled(calibSortReps, scale),
		copyReps: scaled(calibCopyReps, scale),
	}
	for i := range c.src {
		c.src[i] = byte(i*131 + 7)
	}
	return c
}

// run executes the kernel once and returns its wall time.
func (c *calibrator) run() time.Duration {
	t0 := time.Now()
	x := uint64(calibSeedState)
	for r := 0; r < c.sortReps; r++ {
		for i := range c.words {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			c.words[i] = x
		}
		slices.Sort(c.words)
		c.sink += c.words[calibWords/2]
	}
	for r := 0; r < c.copyReps; r++ {
		copy(c.dst, c.src)
		c.sink += uint64(c.dst[(r*4099)%calibBufBytes])
		clear(c.dst)
	}
	return time.Since(t0)
}
