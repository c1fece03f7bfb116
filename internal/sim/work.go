package sim

import "sort"

// Host work is counted, not timed: how many events a run scheduled, how
// many wrappers an election walked, how many frames it made. A count is
// the same on every machine, so it attributes a change in host cost to
// the layer that spends it without sampling, and a golden can pin it.
//
// Each layer registers its counters once, from a package-level
// declaration,
//
//	var cFramesMade = sim.Counter("simnet.frames_made")
//
// and bumps them through the world it already holds (World.Count). A
// world counts only when it was handed a Work (World.CountWork); the
// rest of the time a bump is one nil test, and counting never allocates.

// CounterID names one registered work counter.
type CounterID uint8

// Work holds one count per registered counter. The array spans every
// CounterID, so a bump needs no bounds check. Several worlds may count
// into one Work — a figure sums its points — as long as they do not run
// concurrently.
type Work struct {
	n [1 << 8]uint64
}

// counterNames is the registry, indexed by CounterID. It is written only
// by package initialization.
var counterNames []string

// Counter registers a counter and returns its id; a name registered
// before gets the id it got then. Call it from a package-level var
// declaration: the registry is not synchronized.
func Counter(name string) CounterID {
	for i, n := range counterNames {
		if n == name {
			return CounterID(i)
		}
	}
	if len(counterNames) == len(Work{}.n) {
		panic("sim: too many work counters registering " + name)
	}
	counterNames = append(counterNames, name)
	return CounterID(len(counterNames) - 1)
}

// The kernel's own counters.
var (
	cEvents  = Counter("sim.events")   // events scheduled, wake-ups returned in place included (Events)
	cBuckets = Counter("sim.buckets")  // event-queue buckets opened: heap keys made
	cResumes = Counter("sim.resumes")  // switches into a process (runProc)
	cInPlace = Counter("sim.in_place") // blocking calls that returned with no switch
)

// add bumps counter c by n; a nil Work counts nothing.
func (wk *Work) add(c CounterID, n uint64) {
	if wk != nil {
		wk.n[c] += n
	}
}

// Get reports the count of the named counter, 0 for a name nobody
// registered.
func (wk *Work) Get(name string) uint64 {
	for i, n := range counterNames {
		if n == name {
			return wk.n[i]
		}
	}
	return 0
}

// Tally is one counter's name and count.
type Tally struct {
	Name  string
	Count uint64
}

// Tallies lists every registered counter with its count, by name.
func (wk *Work) Tallies() []Tally {
	out := make([]Tally, len(counterNames))
	for i, n := range counterNames {
		out[i] = Tally{n, wk.n[i]}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// CountWork makes the world add its work to wk from now on, and returns
// the Work it counted into until then; nil stops counting.
func (w *World) CountWork(wk *Work) (was *Work) {
	was, w.work = w.work, wk
	return was
}

// Count adds one to counter c when the world counts its work.
func (w *World) Count(c CounterID) { w.work.add(c, 1) }

// Add adds n to counter c when the world counts its work.
func (w *World) Add(c CounterID, n int) { w.work.add(c, uint64(n)) }
