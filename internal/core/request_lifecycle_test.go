package core

import (
	"bytes"
	"errors"
	"testing"

	"nmad/internal/sim"
	"nmad/internal/simnet"
)

// Tests for the unified Request interface: completion state machines,
// WaitAll / WaitAny, request groups, and the blocking contract — a
// request wakes the one process waiting on it, at the completion instant.

func TestWaitAfterCompletionReturnsStoredError(t *testing.T) {
	w, e0, e1 := testWorld(t, DefaultOptions())
	w.Spawn("send", func(p *sim.Proc) {
		e0.Gate(1).Isend(p, 2, []byte("0123456789"))
	})
	w.Spawn("recv", func(p *sim.Proc) {
		req := e1.Gate(0).Irecv(p, 2, make([]byte, 4))
		if err := req.Wait(p); !errors.Is(err, ErrTruncated) {
			t.Errorf("first Wait = %v, want ErrTruncated", err)
		}
		// A completed request must keep reporting its stored error on
		// every later interrogation, without blocking.
		for i := 0; i < 3; i++ {
			if err := req.Wait(p); !errors.Is(err, ErrTruncated) {
				t.Errorf("Wait after completion = %v, want the stored ErrTruncated", err)
			}
		}
		if !req.Done() || !req.Test() {
			t.Error("Done/Test false after completion")
		}
		if err := req.Err(); !errors.Is(err, ErrTruncated) {
			t.Errorf("Err = %v, want the stored ErrTruncated", err)
		}
	})
	run(t, w)
}

func TestTestNeverBlocks(t *testing.T) {
	w, e0, e1 := testWorld(t, DefaultOptions())
	w.Spawn("recv", func(p *sim.Proc) {
		// No sender yet: Test must report false an arbitrary number of
		// times without ever blocking the process (time only advances by
		// our explicit sleeps).
		req := e1.Gate(0).Irecv(p, 7, make([]byte, 8))
		for i := 0; i < 50; i++ {
			before := p.Now()
			if req.Test() {
				t.Fatal("Test true before any send")
			}
			if p.Now() != before {
				t.Fatal("Test advanced virtual time: it blocked")
			}
		}
		p.Sleep(sim.Millisecond) // let the late sender run
		if !req.Test() {
			t.Error("Test false after the message landed")
		}
		if err := req.Wait(p); err != nil {
			t.Error(err)
		}
	})
	w.Spawn("send", func(p *sim.Proc) {
		p.Sleep(50 * sim.Microsecond)
		if err := e0.Gate(1).Send(p, 7, []byte("late")); err != nil {
			t.Error(err)
		}
	})
	run(t, w)
}

func TestWaitAnyWithAlreadyDoneRequest(t *testing.T) {
	w, e0, e1 := testWorld(t, DefaultOptions())
	w.Spawn("send", func(p *sim.Proc) {
		if err := e0.Gate(1).Send(p, 1, []byte("first")); err != nil {
			t.Error(err)
		}
		p.Sleep(300 * sim.Microsecond)
		if err := e0.Gate(1).Send(p, 2, []byte("second")); err != nil {
			t.Error(err)
		}
	})
	w.Spawn("recv", func(p *sim.Proc) {
		fast := e1.Gate(0).Irecv(p, 1, make([]byte, 8))
		slow := e1.Gate(0).Irecv(p, 2, make([]byte, 8))
		if err := fast.Wait(p); err != nil { // complete it first
			t.Fatal(err)
		}
		before := p.Now()
		idx, err := WaitAny(p, fast, slow)
		if err != nil {
			t.Fatal(err)
		}
		if idx != 0 {
			t.Errorf("WaitAny picked %d, want the already-done request 0", idx)
		}
		if p.Now() != before {
			t.Error("WaitAny blocked although a request was already done")
		}
		// And with only the pending one it must actually wait.
		if idx, err = WaitAny(p, slow); err != nil || idx != 0 {
			t.Errorf("WaitAny(slow) = %d, %v", idx, err)
		}
	})
	run(t, w)
}

func TestWaitAnyPicksTheFirstCompletion(t *testing.T) {
	w, e0, e1 := testWorld(t, DefaultOptions())
	w.Spawn("send", func(p *sim.Proc) {
		p.Sleep(100 * sim.Microsecond)
		if err := e0.Gate(1).Send(p, 2, []byte("only-this-flow")); err != nil {
			t.Error(err)
		}
		if err := e0.Gate(1).Send(p, 1, []byte("then-this")); err != nil {
			t.Error(err)
		}
	})
	w.Spawn("recv", func(p *sim.Proc) {
		a := e1.Gate(0).Irecv(p, 1, make([]byte, 16))
		b := e1.Gate(0).Irecv(p, 2, make([]byte, 16))
		idx, err := WaitAny(p, a, b)
		if err != nil {
			t.Fatal(err)
		}
		if idx != 1 {
			t.Errorf("WaitAny picked %d, want 1 (tag 2 was sent first)", idx)
		}
		if err := WaitAll(p, a, b); err != nil {
			t.Error(err)
		}
	})
	run(t, w)
}

func TestWaitAnyAcrossEngines(t *testing.T) {
	// Requests from different engines: the one matched only much later
	// must not stall what completes on another engine, and WaitAny
	// returns at the instant of that completion — the process blocks on
	// the requests, not on an engine and not on a clock tick. "group"
	// puts the two engines inside one RequestGroup member.
	for _, grouped := range []bool{false, true} {
		name := "send"
		if grouped {
			name = "group"
		}
		t.Run(name, func(t *testing.T) {
			w, engines := nWorld(t, 3, DefaultOptions())
			e0, e1, e2 := engines[0], engines[1], engines[2]
			w.Spawn("driver", func(p *sim.Proc) {
				// A receive on e0 from node 1 that is matched only much later...
				stuck := e0.Gate(1).Irecv(p, 5, make([]byte, 8))
				// ...and a send on e2, a different engine, that completes fast.
				fast := e2.Gate(1).Isend(p, 6, []byte("quick"))
				var doneAt sim.Time
				fast.hook = func(error) { doneAt = p.Now() }
				var quick Request = fast
				if grouped {
					// Node 1 answers the send at once, back on e0.
					echo := e0.Gate(1).Irecv(p, 7, make([]byte, 8))
					echo.hook = func(error) { doneAt = p.Now() }
					quick = NewRequestGroup(fast, echo)
				}
				idx, err := WaitAny(p, stuck, quick)
				if err != nil {
					t.Error(err)
				}
				if idx != 1 {
					t.Errorf("WaitAny picked %d, want the cross-engine request (1)", idx)
				}
				if doneAt == 0 || p.Now() != doneAt {
					t.Errorf("WaitAny returned at %v, want the completion instant %v", p.Now(), doneAt)
				}
				if err := stuck.Wait(p); err != nil {
					t.Error(err)
				}
			})
			w.Spawn("node1", func(p *sim.Proc) {
				if _, err := e1.Gate(2).Recv(p, 6, make([]byte, 8)); err != nil {
					t.Error(err)
				}
				if grouped {
					if err := e1.Gate(0).Send(p, 7, []byte("echo")); err != nil {
						t.Error(err)
					}
				}
				p.Sleep(500 * sim.Microsecond)
				if err := e1.Gate(0).Send(p, 5, []byte("late")); err != nil {
					t.Error(err)
				}
			})
			run(t, w)
		})
	}
}

func TestWaitAnyNoRequests(t *testing.T) {
	if _, err := WaitAny(nil); !errors.Is(err, ErrNoRequests) {
		t.Errorf("WaitAny() = %v, want ErrNoRequests", err)
	}
}

func TestWaitAllReportsFirstError(t *testing.T) {
	w, e0, e1 := testWorld(t, DefaultOptions())
	w.Spawn("send", func(p *sim.Proc) {
		e0.Gate(1).Isend(p, 1, []byte("fits"))
		e0.Gate(1).Isend(p, 2, []byte("does not fit"))
	})
	w.Spawn("recv", func(p *sim.Proc) {
		ok := e1.Gate(0).Irecv(p, 1, make([]byte, 16))
		short := e1.Gate(0).Irecv(p, 2, make([]byte, 2))
		if err := WaitAll(p, ok, short); !errors.Is(err, ErrTruncated) {
			t.Errorf("WaitAll = %v, want the truncation error", err)
		}
	})
	run(t, w)
}

func TestRequestGroupUnifiesSendAndRecv(t *testing.T) {
	w, e0, e1 := testWorld(t, DefaultOptions())
	msg := []byte("grouped")
	w.Spawn("node0", func(p *sim.Proc) {
		g := e0.Gate(1)
		buf := make([]byte, 16)
		grp := NewRequestGroup(g.Isend(p, 1, msg), g.Irecv(p, 2, buf))
		if grp.Done() {
			t.Error("group done before any traffic")
		}
		if err := grp.Wait(p); err != nil {
			t.Error(err)
		}
		if !grp.Test() || grp.Err() != nil {
			t.Error("group state wrong after Wait")
		}
		if grp.Bytes() != len(msg)+len(msg) {
			t.Errorf("group Bytes = %d, want %d", grp.Bytes(), 2*len(msg))
		}
		if !bytes.Equal(buf[:len(msg)], msg) {
			t.Errorf("group receive got %q", buf[:len(msg)])
		}
	})
	w.Spawn("node1", func(p *sim.Proc) {
		g := e1.Gate(0)
		buf := make([]byte, 16)
		if err := WaitAll(p, g.Irecv(p, 1, buf), g.Isend(p, 2, msg)); err != nil {
			t.Error(err)
		}
	})
	run(t, w)
}

func TestFailedRequestIsImmediatelyDone(t *testing.T) {
	boom := errors.New("boom")
	r := FailedRequest(boom)
	if !r.Done() || !r.Test() {
		t.Error("failed request must be done immediately")
	}
	if err := r.Wait(nil); !errors.Is(err, boom) {
		t.Errorf("Wait = %v, want the stored error", err)
	}
	if err := r.Err(); !errors.Is(err, boom) {
		t.Errorf("Err = %v, want the stored error", err)
	}
	if r.Bytes() != 0 {
		t.Errorf("Bytes = %d, want 0", r.Bytes())
	}
	// WaitAny over a failed request returns it (with its error), rather
	// than trying to block on a missing engine.
	idx, err := WaitAny(nil, r)
	if idx != 0 || !errors.Is(err, boom) {
		t.Errorf("WaitAny(failed) = %d, %v", idx, err)
	}
}

// The interface is the contract: every handle the engine produces must
// satisfy it.
var (
	_ Request = (*SendRequest)(nil)
	_ Request = (*RecvRequest)(nil)
	_ Request = (*RequestGroup)(nil)
)

// A process blocked in Wait on a receive nobody sends is what the
// deadlock report names.
func TestWaitOnUnsentReceiveIsNamedInDeadlock(t *testing.T) {
	w, _, e1 := testWorld(t, DefaultOptions())
	w.Spawn("waits-forever", func(p *sim.Proc) {
		e1.Gate(0).Irecv(p, 1, make([]byte, 8)).Wait(p)
		t.Error("Wait returned on a receive nobody sent")
	})
	var dl *sim.DeadlockError
	if err := w.Run(); !errors.As(err, &dl) {
		t.Fatalf("Run() = %v, want *sim.DeadlockError", err)
	}
	if len(dl.Blocked) != 1 || dl.Blocked[0] != "waits-forever" {
		t.Errorf("blocked = %v, want [waits-forever]", dl.Blocked)
	}
}

// WaitAny leaves its process recorded on the requests still pending when
// it returns. Such a stale watcher firing while the process is inside
// Sleep must neither shorten the sleep nor resume the process a second
// time when the sleep's own timer fires.
func TestStaleWatcherDoesNotDisturbSleep(t *testing.T) {
	w, e0, e1 := testWorld(t, DefaultOptions())
	w.Spawn("send", func(p *sim.Proc) {
		if err := e0.Gate(1).Send(p, 1, []byte("early")); err != nil {
			t.Error(err)
		}
		p.Sleep(100 * sim.Microsecond)
		if err := e0.Gate(1).Send(p, 2, []byte("late")); err != nil {
			t.Error(err)
		}
	})
	w.Spawn("recv", func(p *sim.Proc) {
		early := e1.Gate(0).Irecv(p, 1, make([]byte, 8))
		late := e1.Gate(0).Irecv(p, 2, make([]byte, 8))
		var lateAt sim.Time
		late.hook = func(error) { lateAt = p.Now() }
		if idx, err := WaitAny(p, early, late); idx != 0 || err != nil {
			t.Fatalf("WaitAny = %d, %v; want the early receive", idx, err)
		}
		start := p.Now()
		p.Sleep(300 * sim.Microsecond)
		if lateAt <= start || lateAt >= p.Now() {
			t.Fatalf("late receive completed at %v, not inside the sleep from %v", lateAt, start)
		}
		if got := p.Now() - start; got != 300*sim.Microsecond {
			t.Errorf("Sleep(300µs) lasted %v with a stale watcher firing inside it", got)
		}
		p.Sleep(50 * sim.Microsecond)
		if got := p.Now() - start; got != 350*sim.Microsecond {
			t.Errorf("the following Sleep(50µs) ended %v after the first began: resumed twice", got)
		}
		if !late.Done() {
			t.Error("late receive not done")
		}
	})
	run(t, w)
}

// Completions wake the process waiting on them and nobody else: eight
// processes sit in Recv on eight gates of one engine while one peer
// sends m messages to one of them. What the seven bystanders add to the
// run's event count must not depend on m — with a wake-everyone
// completion it grows by seven per message. An event count, so the same
// on any machine.
func TestBystandersCostNoEvents(t *testing.T) {
	const gates = 8
	events := func(m int, bystanders bool) uint64 {
		w, engines := nWorld(t, gates+1, DefaultOptions())
		recv := func(peer, n int) {
			w.Spawn("recv", func(p *sim.Proc) {
				for i := 0; i < n; i++ {
					if _, err := engines[0].Gate(simnet.NodeID(peer)).Recv(p, 1, make([]byte, 8)); err != nil {
						t.Error(err)
					}
				}
			})
		}
		send := func(peer, n int, at sim.Time) {
			w.Spawn("send", func(p *sim.Proc) {
				p.Sleep(at)
				for i := 0; i < n; i++ {
					if err := engines[peer].Gate(0).Send(p, 1, []byte("payload")); err != nil {
						t.Error(err)
					}
				}
			})
		}
		recv(1, m)
		send(1, m, 10*sim.Microsecond)
		if bystanders {
			// Parked through the whole exchange, released long after it.
			for peer := 2; peer <= gates; peer++ {
				recv(peer, 1)
				send(peer, 1, 10*sim.Millisecond)
			}
		}
		run(t, w)
		return w.Events()
	}
	one := events(1, true) - events(1, false)
	ten := events(10, true) - events(10, false)
	if one != ten {
		t.Errorf("seven parked bystanders cost %d events next to 1 message and %d next to 10", one, ten)
	}
}
