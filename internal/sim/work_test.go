package sim

import "testing"

var cTest = Counter("sim.test_counter")

// A name registers once: its second registration is the first's id, and
// the counter reads back by name.
func TestCounterRegistersOnce(t *testing.T) {
	a := cTest
	if b := Counter("sim.test_counter"); a != b {
		t.Fatalf("a repeated registration got id %d, the first %d", b, a)
	}
	if Counter("sim.events") != cEvents {
		t.Error("re-registering a kernel counter made a new id")
	}
	w := NewWorld()
	var wk Work
	w.CountWork(&wk)
	w.Count(a)
	w.Add(a, 4)
	if got := wk.Get("sim.test_counter"); got != 5 {
		t.Errorf("counter reads %d, want 5", got)
	}
	if got := wk.Get("sim.nobody_registered_this"); got != 0 {
		t.Errorf("an unregistered name reads %d", got)
	}
	seen := false
	for i, c := range wk.Tallies() {
		if i > 0 && wk.Tallies()[i-1].Name >= c.Name {
			t.Errorf("tallies out of name order at %q", c.Name)
		}
		seen = seen || c.Name == "sim.test_counter" && c.Count == 5
	}
	if !seen {
		t.Error("Tallies does not list the counter")
	}
}

// The kernel counts what it did: every event numbered (a wake-up
// returned in place included, as Events), every bucket opened, every
// switch into a process and every blocking call that returned without
// one.
func TestKernelCounts(t *testing.T) {
	for _, tc := range []struct {
		name                              string
		setup                             func(w *World)
		events, buckets, resumes, inPlace uint64
	}{
		{"a lone sleeper returns in place", func(w *World) {
			w.Spawn("a", func(p *Proc) { p.Sleep(1); p.Sleep(1); p.Sleep(1) })
		}, 4, 0, 1, 3},
		{"a sleeper fires the callback before its wake-up itself", func(w *World) {
			w.At(3, func() {})
			w.Spawn("a", func(p *Proc) { p.Sleep(5) })
		}, 3, 2, 1, 1},
		{"two sleepers switch", func(w *World) {
			w.Spawn("a", func(p *Proc) { p.Sleep(5); p.Sleep(5) })
			w.Spawn("b", func(p *Proc) { p.Sleep(7) })
		}, 5, 3, 5, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := NewWorld()
			var wk Work
			w.CountWork(&wk)
			tc.setup(w)
			mustRun(t, w)
			if got := wk.Get("sim.events"); got != w.Events() || got != tc.events {
				t.Errorf("sim.events = %d, Events() = %d, want %d", got, w.Events(), tc.events)
			}
			for name, want := range map[string]uint64{
				"sim.buckets": tc.buckets, "sim.resumes": tc.resumes, "sim.in_place": tc.inPlace,
			} {
				if got := wk.Get(name); got != want {
					t.Errorf("%s = %d, want %d", name, got, want)
				}
			}
		})
	}
}

// Counting bumps an array the caller owns: it allocates nothing.
func TestCountingAllocatesNothing(t *testing.T) {
	w := NewWorld()
	var wk Work
	w.CountWork(&wk)
	if n := testing.AllocsPerRun(100, func() { w.Count(cTest); w.Add(cTest, 2) }); n != 0 {
		t.Errorf("a bump allocates %.0f objects", n)
	}
}
