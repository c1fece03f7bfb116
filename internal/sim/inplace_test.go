package sim

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"testing"
)

// TestSleepInPlaceIsExact runs seeded random programs two ways: as
// processes, and as the same steps written as callbacks that schedule
// their continuation with After and At, which is what every Sleep and
// every wait was before a process could return in place. A program is a
// few processes that sleep 0, 1, 2 or 5, park, park until a chain of plain
// events wakes them, unpark each other, spawn, stop the world and schedule
// plain events (often for the very instant a wake-up is due), driven by
// Run and by RunUntil horizons before, on and after wake-ups, with more
// plain events scheduled between runs. Both ways must log the same (time,
// what, Events()) lines.
func TestSleepInPlaceIsExact(t *testing.T) {
	var total blockCounts
	for seed := uint64(1); seed <= 500; seed++ {
		procs, roots := genProgram(NewRNG(seed))
		got, n := runAsProcs(seed, procs, roots)
		want := runAsCallbacks(seed, procs, roots)
		if !slices.Equal(got, want) {
			i := 0
			for i < min(len(got), len(want)) && got[i] == want[i] {
				i++
			}
			t.Fatalf("seed %d: logs differ at line %d\nprocesses: %v\ncallbacks: %v",
				seed, i, got[max(i-3, 0):min(i+3, len(got))], want[max(i-3, 0):min(i+3, len(want))])
		}
		total.sleeps += n.sleeps
		total.sleptInPlace += n.sleptInPlace
		total.parks += n.parks
		total.parkedInPlace += n.parkedInPlace
	}
	// Both ways of returning — in place, and by a switch from Run — must
	// occur, for sleeps and for parks alike.
	if n := total.sleptInPlace; n <= 0 || n >= total.sleeps {
		t.Errorf("%d of %d sleeps returned in place; want some but not all", n, total.sleeps)
	}
	if n := total.parkedInPlace; n <= 0 || n >= total.parks {
		t.Errorf("%d of %d parks returned in place; want some but not all", n, total.parks)
	}
}

// blockCounts counts the blocking steps of a program run as processes,
// and how many of them returned in place: without Run switching back into
// the process.
type blockCounts struct {
	sleeps, sleptInPlace int
	parks, parkedInPlace int
}

type stepKind uint8

const (
	stepSleep stepKind = iota
	stepPark
	stepParkChain // park until a chain of arg After(d) callbacks unparks
	stepUnpark
	stepSpawn
	stepAt
	stepStop
)

// step is one thing a process of a generated program does.
type step struct {
	kind stepKind
	d    Time // the delay of a Sleep, an At or a chain's links
	arg  int  // the process an Unpark wakes or a Spawn starts; a chain's length
}

// logLine is what both ways of running a program log.
type logLine struct {
	at     Time
	what   string
	events uint64
}

var stepDelays = [...]Time{0, 1, 2, 5}

// genProgram draws a program: procs[i] is process i's steps. Processes
// below roots start at time 0; each other one is spawned by one step of a
// lower-numbered process.
func genProgram(r *RNG) (procs [][]step, roots int) {
	n := r.Range(1, 8)
	roots = r.Range(1, n)
	procs = make([][]step, n)
	for i := range procs {
		for range r.Range(0, 10) {
			s := step{kind: stepSleep, d: stepDelays[r.Intn(len(stepDelays))]}
			switch x := r.Intn(22); {
			case x < 9:
			case x < 12:
				s.kind = stepAt
			case x < 14:
				s.kind = stepPark
			case x < 16:
				s.kind, s.arg = stepParkChain, r.Range(1, 3)
			case x < 20:
				s.kind, s.arg = stepUnpark, r.Intn(n)
			default:
				s.kind = stepStop
			}
			procs[i] = append(procs[i], s)
		}
	}
	for c := roots; c < n; c++ {
		parent := r.Intn(c)
		procs[parent] = slices.Insert(procs[parent], r.Intn(len(procs[parent])+1), step{kind: stepSpawn, arg: c})
	}
	return procs, roots
}

func procName(i int) string { return fmt.Sprintf("p%d", i) }

// afterChain schedules s.arg plain events, each s.d after the one before
// it; the last calls wake.
func afterChain(w *World, what string, s step, say func(string), wake func()) {
	var link func(k int)
	link = func(k int) {
		w.After(s.d, func() {
			say(fmt.Sprintf("%s link %d", what, k))
			if k < s.arg {
				link(k + 1)
			} else {
				wake()
			}
		})
	}
	link(1)
}

// drive runs w to completion the same way for both forms: before each run
// it schedules zero to two plain events (each may unpark a process or stop
// the world), then runs it unbounded or up to a horizon from just behind
// the clock to 5 past it. outcome turns what a run returned into a line.
func drive(seed uint64, w *World, nprocs int, say func(string), unpark func(int), outcome func(error) string) {
	r := NewRNG(^seed)
	for round := 0; round == 0 || !w.queue.empty(); round++ {
		for k := range r.Intn(3) {
			d, target, stop := stepDelays[r.Intn(len(stepDelays))], r.Intn(nprocs+1)-1, r.Intn(8) == 0
			what := fmt.Sprintf("event %d.%d", round, k)
			w.After(d, func() {
				say(what)
				if target >= 0 {
					unpark(target)
				}
				if stop {
					w.Stop()
				}
			})
		}
		var err error
		if r.Intn(3) == 0 {
			err = w.Run()
		} else {
			err = w.RunUntil(w.Now() + Time(r.Range(-1, 5)))
		}
		say("returned " + outcome(err))
	}
}

// runAsProcs runs the program as processes and reports its log and its
// blocking steps. A step returned in place if Run did not resume the
// process during it, which the runFn wrapper counts.
func runAsProcs(seed uint64, procs [][]step, roots int) (log []logLine, n blockCounts) {
	w := NewWorld()
	say := func(what string) { log = append(log, logLine{w.Now(), what, w.Events()}) }
	ps := make([]*Proc, len(procs))
	resumed := make([]int, len(procs))
	var spawn func(i int)
	spawn = func(i int) {
		p := w.Spawn(procName(i), func(p *Proc) {
			for j, s := range procs[i] {
				say(fmt.Sprintf("p%d.%d", i, j))
				before := resumed[i]
				switch s.kind {
				case stepSleep:
					p.Sleep(s.d)
					n.sleeps++
					if resumed[i] == before {
						n.sleptInPlace++
					}
				case stepPark, stepParkChain:
					if s.kind == stepParkChain {
						afterChain(w, fmt.Sprintf("p%d.%d", i, j), s, say, p.Unpark)
					}
					p.Park()
					n.parks++
					if resumed[i] == before {
						n.parkedInPlace++
					}
				case stepUnpark:
					ps[s.arg].Unpark()
				case stepSpawn:
					spawn(s.arg)
				case stepAt:
					what := fmt.Sprintf("p%d.%d fires", i, j)
					w.After(s.d, func() { say(what) })
				case stepStop:
					w.Stop()
				}
			}
			say(procName(i) + " ends")
		})
		run := p.runFn // Spawn queued the first step already
		p.runFn = func() { resumed[i]++; run() }
		ps[i] = p
	}
	for i := range roots {
		spawn(i)
	}
	drive(seed, w, len(procs), say, func(i int) { ps[i].Unpark() }, func(err error) string {
		var dl *DeadlockError
		if errors.As(err, &dl) {
			return "deadlock " + strings.Join(dl.Blocked, " ")
		}
		return fmt.Sprint(err)
	})
	return log, n
}

// runAsCallbacks runs the program as event callbacks, each process a
// program counter whose blocking steps schedule its continuation, and
// reports its log.
func runAsCallbacks(seed uint64, procs [][]step, roots int) (log []logLine) {
	w := NewWorld()
	say := func(what string) { log = append(log, logLine{w.Now(), what, w.Events()}) }
	pc := make([]int, len(procs))
	parked := make([]bool, len(procs))
	resume := make([]func(), len(procs)) // the continuation, first step included
	unpark := func(i int) {
		if parked[i] {
			parked[i] = false
			w.At(w.Now(), resume[i])
		}
	}
	run := func(i int) {
		for pc[i] < len(procs[i]) {
			j := pc[i]
			s := procs[i][j]
			pc[i]++
			say(fmt.Sprintf("p%d.%d", i, j))
			switch s.kind {
			case stepSleep:
				w.After(s.d, resume[i])
				return
			case stepParkChain:
				afterChain(w, fmt.Sprintf("p%d.%d", i, j), s, say, func() { unpark(i) })
				fallthrough
			case stepPark:
				parked[i] = true
				return
			case stepUnpark:
				unpark(s.arg)
			case stepSpawn:
				w.At(w.Now(), resume[s.arg])
			case stepAt:
				what := fmt.Sprintf("p%d.%d fires", i, j)
				w.After(s.d, func() { say(what) })
			case stepStop:
				w.Stop()
			}
		}
		say(procName(i) + " ends")
	}
	for i := range procs {
		resume[i] = func() { run(i) }
	}
	for i := range roots {
		w.At(w.Now(), resume[i])
	}
	drive(seed, w, len(procs), say, unpark, func(err error) string {
		var blocked []string
		for i, p := range parked {
			if p {
				blocked = append(blocked, procName(i))
			}
		}
		if err == nil && w.queue.empty() && len(blocked) > 0 {
			sort.Strings(blocked)
			return "deadlock " + strings.Join(blocked, " ")
		}
		return fmt.Sprint(err)
	})
	return log
}

// A process sleeping alone returns in place every time: its wake-ups are
// counted but never queued, so the heap never grows.
func TestLoneSleeperQueuesNothing(t *testing.T) {
	w := NewWorld()
	const n = 1000
	w.Spawn("lone", func(p *Proc) {
		for i := 0; i < n; i++ {
			p.Sleep(Time(i % 3))
		}
	})
	mustRun(t, w)
	if c := cap(w.queue.heap); c != 0 {
		t.Errorf("a lone sleeper grew the heap to %d keys, want none", c)
	}
	if got, want := w.Events(), uint64(1+n); got != want {
		t.Errorf("Events() = %d, want %d: the spawn and one per sleep", got, want)
	}
	if got, want := w.Now(), Time(n/3*3); got != want {
		t.Errorf("clock at %v, want %v", got, want)
	}
}

// A Sleep called from outside its process panics, even where a Sleep of
// the running process would have returned in place.
func TestSleepFromTheWrongContextPanics(t *testing.T) {
	w := NewWorld()
	parked := w.Spawn("parked", (*Proc).Park)
	w.At(5, func() { parked.Sleep(1) })
	var got any
	func() {
		defer func() { got = recover() }()
		_ = w.Run()
	}()
	if s, _ := got.(string); !strings.Contains(s, "wrong context") {
		t.Errorf("Run panicked with %v, want the wrong-context panic", got)
	}
	if w.Now() != 5 {
		t.Errorf("clock at %v, want 5ns: the misplaced Sleep must not move it", w.Now())
	}
}

// After and Sleep saturate at the end of time: a delay that carries now+d
// past the largest Time waits until the last instant instead of wrapping
// negative and firing at once.
func TestAfterSaturatesAtTheEndOfTime(t *testing.T) {
	const end = Time(math.MaxInt64)
	w := NewWorld()
	var fired []Time
	w.At(10, func() {
		w.After(end, func() { fired = append(fired, w.Now()) })
		w.After(5, func() { fired = append(fired, w.Now()) })
	})
	w.Spawn("sleeper", func(p *Proc) {
		p.Sleep(20)
		p.Sleep(end - 1) // queued behind the event above, due at the same instant
		fired = append(fired, p.Now())
	})
	mustRun(t, w)
	if want := []Time{15, end, end}; !slices.Equal(fired, want) {
		t.Errorf("fired at %v, want %v", fired, want)
	}

	w = NewWorld()
	w.Spawn("lone", func(p *Proc) {
		p.Sleep(1)
		p.Sleep(end) // in place
	})
	mustRun(t, w)
	if w.Now() != end {
		t.Errorf("a lone Sleep past the end of time left the clock at %v, want %v", w.Now(), end)
	}
}
