// Package sim implements a deterministic discrete-event simulation kernel:
// a virtual clock, an event queue, cooperative processes (exactly one
// runnable at a time, SimPy style) and condition variables.
//
// Everything built in this repository — the simulated NICs, the
// NewMadeleine engine, the MPI layers and the benchmarks — runs inside a
// sim.World. Latency and bandwidth figures are read off the virtual clock,
// which makes every experiment exact, repeatable and host independent.
package sim

import (
	"fmt"
	"math"
)

// Time is a point on (or a distance along) the virtual time line, in
// nanoseconds. The zero Time is the instant a World is created.
type Time int64

// Handy duration units.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Microseconds reports t as a floating-point number of microseconds.
func (t Time) Microseconds() float64 { return float64(t) / float64(Microsecond) }

// Seconds reports t as a floating-point number of seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String formats the time with a unit chosen by magnitude.
func (t Time) String() string {
	switch {
	case t < 0:
		if t == math.MinInt64 {
			t++ // -t would be t again; its neighbour prints the same three decimals
		}
		return "-" + (-t).String()
	case t < 10*Microsecond:
		return fmt.Sprintf("%dns", int64(t))
	case t < 10*Millisecond:
		return fmt.Sprintf("%.3fµs", t.Microseconds())
	case t < 10*Second:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	default:
		return fmt.Sprintf("%.3fs", t.Seconds())
	}
}

// fromSeconds converts a floating-point number of seconds to a Time,
// rounding to the nearest nanosecond.
func fromSeconds(s float64) Time { return Time(math.Round(s * float64(Second))) }

// FromMicroseconds converts a floating-point number of microseconds to a
// Time, rounding to the nearest nanosecond.
func FromMicroseconds(us float64) Time { return Time(math.Round(us * float64(Microsecond))) }

// ByteTime is the time needed to move n bytes at bw bytes per second,
// rounded to the nearest nanosecond. A non-positive bandwidth means
// "infinitely fast" and yields zero: profiles use it to disable a stage of
// the cost model.
func ByteTime(n int, bw float64) Time {
	if n <= 0 || bw <= 0 {
		return 0
	}
	return fromSeconds(float64(n) / bw)
}
