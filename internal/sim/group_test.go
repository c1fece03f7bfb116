package sim

import (
	"errors"
	"slices"
	"testing"
)

func TestGroupFirstErrorBeatsTheDeadlockItCauses(t *testing.T) {
	w := NewWorld()
	g := NewGroup(w)
	c := NewCond(w)
	first, second := errors.New("first"), errors.New("second")
	g.Go("quits", func(p *Proc) error { p.Sleep(5); return first })
	g.Go("quits-later", func(p *Proc) error { p.Sleep(7); return second })
	g.Go("stranded", func(p *Proc) error { c.Wait(p); return nil })
	if err := g.Run(); err != first {
		t.Fatalf("Run() = %v, want the first process error", err)
	}
	if w.live != 1 {
		t.Errorf("live = %d, want the stranded peer still blocked", w.live)
	}
}

func TestGroupBareDeadlock(t *testing.T) {
	w := NewWorld()
	g := NewGroup(w)
	c := NewCond(w)
	g.Go("stuck", func(p *Proc) error { c.Wait(p); return nil })
	var dl *DeadlockError
	if err := g.Run(); !errors.As(err, &dl) {
		t.Fatalf("Run() = %v, want *DeadlockError", err)
	}
	if len(dl.Blocked) != 1 || dl.Blocked[0] != "stuck" {
		t.Errorf("blocked = %v, want [stuck]", dl.Blocked)
	}
}

func TestGroupEndIsTheLastFinisher(t *testing.T) {
	w := NewWorld()
	g := NewGroup(w)
	g.Go("late", func(p *Proc) error { p.Sleep(30); return nil })
	g.Go("early", func(p *Proc) error { p.Sleep(10); return nil })
	w.At(50, func() {}) // the world outlives the group
	if err := g.Run(); err != nil {
		t.Fatal(err)
	}
	if g.End() != 30 || w.Now() != 50 {
		t.Errorf("End() = %v with the clock at %v, want 30ns and 50ns", g.End(), w.Now())
	}
}

func TestGroupFailFromSchedulerContext(t *testing.T) {
	w := NewWorld()
	g := NewGroup(w)
	boom := errors.New("boom")
	w.At(3, func() { g.fail(nil); g.fail(boom); g.fail(errors.New("later")) })
	g.Go("fine", func(p *Proc) error { p.Sleep(5); return nil })
	if err := g.Run(); err != boom {
		t.Fatalf("Run() = %v, want the first non-nil fail", err)
	}
}

// Go must be Spawn plus bookkeeping: same names, same interleaving, and
// not one event more, or every golden timeline above the kernel moves.
func TestGroupGoSpawnsLikeSpawn(t *testing.T) {
	run := func(spawner func(w *World) func(name string, fn func(p *Proc))) (steps []string, events uint64) {
		w := NewWorld()
		spawn := spawner(w)
		for _, name := range []string{"a", "b"} {
			spawn(name, func(p *Proc) {
				for i := 0; i < 3; i++ {
					steps = append(steps, p.Name())
					p.Sleep(2)
				}
			})
		}
		if err := w.Run(); err != nil {
			t.Fatal(err)
		}
		return steps, w.Events()
	}
	plainSteps, plainEvents := run(func(w *World) func(string, func(*Proc)) {
		return func(name string, fn func(p *Proc)) { w.Spawn(name, fn) }
	})
	groupSteps, groupEvents := run(func(w *World) func(string, func(*Proc)) {
		g := NewGroup(w)
		return func(name string, fn func(p *Proc)) {
			g.Go(name, func(p *Proc) error { fn(p); return nil })
		}
	})
	if plainEvents != groupEvents {
		t.Errorf("plain Spawn pushed %d events, Group.Go %d", plainEvents, groupEvents)
	}
	if !slices.Equal(plainSteps, groupSteps) {
		t.Errorf("interleaving differs: %v vs %v", plainSteps, groupSteps)
	}
}
