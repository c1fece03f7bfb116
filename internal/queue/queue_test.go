package queue

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"nmad/internal/core"
	"nmad/internal/sim"
	"nmad/internal/simnet"
)

const us = sim.Time(1000)

func newTestEngine(t *testing.T) (*sim.World, *core.Engine) {
	t.Helper()
	w := sim.NewWorld()
	f := simnet.NewFabric(w, 2, simnet.DefaultHost())
	if _, err := f.AddNetwork(simnet.MX10G()); err != nil {
		t.Fatal(err)
	}
	e, err := core.New(f, 0, core.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := e.AttachFabric(f); err != nil {
		t.Fatal(err)
	}
	return w, e
}

func sleeper(d sim.Time, after func(p *sim.Proc)) func(p *sim.Proc) error {
	return func(p *sim.Proc) error {
		p.Sleep(d)
		if after != nil {
			after(p)
		}
		return nil
	}
}

func TestConfigValidation(t *testing.T) {
	_, e := newTestEngine(t)
	cases := []Config{
		{}, // no tenants
		{Tenants: []TenantSpec{{Name: "", Weight: 1}}},                          // empty name
		{Tenants: []TenantSpec{{Name: "a", Weight: 1}, {Name: "a", Weight: 1}}}, // duplicate
		{Tenants: []TenantSpec{{Name: "a", Weight: 0}}},                         // weight < 1
		{Tenants: []TenantSpec{{Name: "a", Weight: 1, Class: Class(7)}}},        // bad class
		{Capacity: -1, Tenants: []TenantSpec{{Name: "a", Weight: 1}}},           // negative bound
	}
	for i, cfg := range cases {
		if _, err := New(e, cfg); !errors.Is(err, ErrBadConfig) {
			t.Errorf("case %d: got %v, want ErrBadConfig", i, err)
		}
	}
	q, err := New(e, Config{Tenants: []TenantSpec{{Name: "a", Weight: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	if q.cfg.Capacity != defaultCapacity || q.cfg.Workers != defaultWorkers || q.cfg.Aging != defaultAging {
		t.Errorf("zero fields not defaulted: %+v", q.cfg)
	}
}

func TestUnknownTenantRejected(t *testing.T) {
	w, e := newTestEngine(t)
	q, err := New(e, Config{Tenants: []TenantSpec{{Name: "a", Weight: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	w.At(0, func() {
		if _, err := q.Submit("nobody", "j", sleeper(us, nil)); !errors.Is(err, ErrUnknownTenant) {
			t.Errorf("got %v, want ErrUnknownTenant", err)
		}
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestCapacityRejectsAndCounts(t *testing.T) {
	w, e := newTestEngine(t)
	q, err := New(e, Config{Capacity: 3, Workers: 1,
		Tenants: []TenantSpec{{Name: "a", Weight: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	w.At(0, func() {
		// First submission dispatches straight to the single worker;
		// the next three fill the backlog to capacity.
		for i := 0; i < 4; i++ {
			if _, err := q.Submit("a", fmt.Sprintf("j%d", i), sleeper(10*us, nil)); err != nil {
				t.Errorf("submit %d: %v", i, err)
			}
		}
		if q.Depth() != 3 || q.Active() != 1 {
			t.Errorf("depth=%d active=%d, want 3/1", q.Depth(), q.Active())
		}
		if _, err := q.Submit("a", "overflow", sleeper(us, nil)); !errors.Is(err, ErrQueueFull) {
			t.Errorf("got %v, want ErrQueueFull", err)
		}
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.JobsAdmitted != 4 || st.JobsRejected != 1 || st.JobsDispatched != 4 || st.JobsCompleted != 4 {
		t.Errorf("admitted/rejected/dispatched/completed = %d/%d/%d/%d, want 4/1/4/4",
			st.JobsAdmitted, st.JobsRejected, st.JobsDispatched, st.JobsCompleted)
	}
	if st.PeakQueueDepth != 3 {
		t.Errorf("PeakQueueDepth = %d, want 3", st.PeakQueueDepth)
	}
	if st.PeakJobWait <= 0 {
		t.Errorf("PeakJobWait = %v, want > 0 (jobs queued behind the worker)", st.PeakJobWait)
	}
	a, _ := q.Tenant("a")
	if ts := a.Stats(); ts.Admitted != 4 || ts.Rejected != 1 || ts.Completed != 4 {
		t.Errorf("tenant stats %+v", ts)
	}
}

func TestLatencyClassDispatchesFirst(t *testing.T) {
	w, e := newTestEngine(t)
	q, err := New(e, Config{Workers: 1, Aging: sim.Time(1_000_000_000), // aging out of the picture
		Tenants: []TenantSpec{
			{Name: "bulk", Weight: 1, Class: ClassBulk},
			{Name: "lat", Weight: 1, Class: ClassLatency},
		}})
	if err != nil {
		t.Fatal(err)
	}
	var order []string
	mark := func(name string) func(p *sim.Proc) error {
		return sleeper(5*us, func(*sim.Proc) { order = append(order, name) })
	}
	w.At(0, func() { q.Submit("lat", "hog", mark("hog")) })
	// Submitted while the hog occupies the worker, bulk first: the
	// latency-class job must still win the freed slot.
	w.At(1*us, func() { q.Submit("bulk", "b", mark("b")) })
	w.At(2*us, func() { q.Submit("lat", "l", mark("l")) })
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(order, ","); got != "hog,l,b" {
		t.Errorf("completion order %q, want hog,l,b", got)
	}
}

func TestAgingLiftsStarvedBulk(t *testing.T) {
	run := func(aging sim.Time) (order []string, aged int) {
		w, e := newTestEngine(t)
		q, err := New(e, Config{Workers: 1, Aging: aging,
			Tenants: []TenantSpec{
				{Name: "bulk", Weight: 1, Class: ClassBulk},
				{Name: "lat", Weight: 1, Class: ClassLatency},
			}})
		if err != nil {
			t.Fatal(err)
		}
		mark := func(name string) func(p *sim.Proc) error {
			return sleeper(5*us, func(*sim.Proc) { order = append(order, name) })
		}
		w.At(0, func() { q.Submit("lat", "hog", sleeper(200*us, nil)) })
		w.At(1*us, func() { q.Submit("bulk", "b", mark("b")) })
		// A fresh latency job arrives just before the worker frees.
		w.At(195*us, func() { q.Submit("lat", "l", mark("l")) })
		if err := w.Run(); err != nil {
			t.Fatal(err)
		}
		return order, e.Stats().JobsAged
	}

	// With a 50us aging interval the bulk job has waited ~4 intervals by
	// the time the worker frees: effective class 0+3 beats the fresh
	// latency job's 2.
	order, aged := run(50 * us)
	if got := strings.Join(order, ","); got != "b,l" {
		t.Errorf("aged run order %q, want b,l (bulk lifted past latency)", got)
	}
	if aged == 0 {
		t.Error("JobsAged = 0, want the lifted dispatch counted")
	}
	// With aging effectively off the same layout starves the bulk job
	// until the latency tenant is drained.
	order, aged = run(sim.Time(1_000_000_000))
	if got := strings.Join(order, ","); got != "l,b" {
		t.Errorf("no-aging run order %q, want l,b", got)
	}
	if aged != 0 {
		t.Errorf("JobsAged = %d, want 0 with aging off", aged)
	}
}

// fairShareOrder runs 9 jobs for a weight-3 tenant against 3 jobs for a
// weight-1 tenant on one worker and returns the dispatch order string.
func fairShareOrder(t *testing.T) string {
	t.Helper()
	w, e := newTestEngine(t)
	q, err := New(e, Config{Workers: 1,
		Tenants: []TenantSpec{
			{Name: "A", Weight: 3, Class: ClassNormal},
			{Name: "B", Weight: 1, Class: ClassNormal},
		}})
	if err != nil {
		t.Fatal(err)
	}
	var order []string
	mark := func(name string) func(p *sim.Proc) error {
		return sleeper(5*us, func(*sim.Proc) { order = append(order, name) })
	}
	w.At(0, func() {
		for i := 0; i < 9; i++ {
			q.Submit("A", fmt.Sprintf("a%d", i), mark("A"))
		}
		for i := 0; i < 3; i++ {
			q.Submit("B", fmt.Sprintf("b%d", i), mark("B"))
		}
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	return strings.Join(order, "")
}

func TestWeightedFairShare(t *testing.T) {
	// Stride scheduling with weights 3:1 — after the initial tie
	// (registration order) the pattern settles to three A slots per B.
	if got := fairShareOrder(t); got != "ABAAABAAABAA" {
		t.Errorf("dispatch order %q, want ABAAABAAABAA", got)
	}
}

func TestDispatchOrderDeterministic(t *testing.T) {
	if a, b := fairShareOrder(t), fairShareOrder(t); a != b {
		t.Errorf("two identical runs dispatched differently: %q vs %q", a, b)
	}
}

func TestJobWaitAndError(t *testing.T) {
	w, e := newTestEngine(t)
	q, err := New(e, Config{Workers: 1, Tenants: []TenantSpec{{Name: "a", Weight: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("job failed")
	var j *Job
	w.At(0, func() {
		j, err = q.Submit("a", "failing", func(p *sim.Proc) error {
			p.Sleep(10 * us)
			return boom
		})
		if err != nil {
			t.Errorf("submit: %v", err)
		}
	})
	w.Spawn("waiter", func(p *sim.Proc) {
		p.Sleep(us) // let the At callback submit first
		if werr := j.Wait(p); !errors.Is(werr, boom) {
			t.Errorf("Wait = %v, want the job's error", werr)
		}
		if !j.Done() || !errors.Is(j.Err(), boom) {
			t.Errorf("Done=%v Err=%v after Wait", j.Done(), j.Err())
		}
		if !(j.Submitted() <= j.Dispatched() && j.Dispatched() < j.Completed()) {
			t.Errorf("timeline not monotonic: %v/%v/%v", j.Submitted(), j.Dispatched(), j.Completed())
		}
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.JobsCompleted != 1 {
		t.Errorf("JobsCompleted = %d, want 1 (failed jobs still complete)", st.JobsCompleted)
	}
}

func TestSendOptionsFollowClass(t *testing.T) {
	_, e := newTestEngine(t)
	q, err := New(e, Config{Tenants: []TenantSpec{
		{Name: "bulk", Weight: 1, Class: ClassBulk},
		{Name: "lat", Weight: 1, Class: ClassLatency},
	}})
	if err != nil {
		t.Fatal(err)
	}
	b, _ := q.Tenant("bulk")
	l, _ := q.Tenant("lat")
	if b.SendOptions() != nil {
		t.Error("bulk tenant should attach no send options")
	}
	if len(l.SendOptions()) != 1 {
		t.Error("latency tenant should attach Priority()")
	}
	if b.Class().String() != "bulk" || l.Class().String() != "latency" {
		t.Errorf("class strings %q/%q", b.Class(), l.Class())
	}
	if c, ok := ClassByName("normal"); !ok || c != ClassNormal {
		t.Errorf("ClassByName(normal) = %v,%v", c, ok)
	}
	if _, ok := ClassByName("vip"); ok {
		t.Error("ClassByName(vip) should fail")
	}
}

// A finished job wakes the one process waiting on it: with k jobs each
// waited on by its own process, the first completion resumes one waiter
// and leaves the others parked.
func TestJobCompletionWakesOnlyItsWaiter(t *testing.T) {
	w, e := newTestEngine(t)
	const k = 4
	q, err := New(e, Config{Workers: k, Tenants: []TenantSpec{{Name: "a", Weight: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	resumed := 0
	w.At(0, func() {
		for i := 0; i < k; i++ {
			// Job i runs for 10(i+1) µs, so job 0 finishes alone at 10 µs.
			j, err := q.Submit("a", fmt.Sprint(i), sleeper(sim.Time(i+1)*10*us, nil))
			if err != nil {
				t.Fatal(err)
			}
			w.Spawn("waiter", func(p *sim.Proc) {
				if err := j.Wait(p); err != nil {
					t.Error(err)
				}
				resumed++
			})
		}
	})
	var before uint64
	w.At(10*us-1, func() { before = w.Events() })
	w.At(15*us, func() {
		if resumed != 1 {
			t.Errorf("%d waiters resumed by the first completion, want 1", resumed)
		}
		// Every timer was pushed before: the one event since is the
		// wake-up of job 0's waiter.
		if got := w.Events() - before; got != 1 {
			t.Errorf("first of %d waited-on jobs completing pushed %d events, want 1", k, got)
		}
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if resumed != k {
		t.Errorf("%d of %d waiters resumed", resumed, k)
	}
}

// A process blocked in Job.Wait on a job that never finishes is what the
// deadlock report names.
func TestWaitOnStuckJobIsNamedInDeadlock(t *testing.T) {
	w, e := newTestEngine(t)
	q, err := New(e, Config{Tenants: []TenantSpec{{Name: "a", Weight: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	w.Spawn("waits-on-job", func(p *sim.Proc) {
		j, err := q.Submit("a", "stuck", func(p *sim.Proc) error {
			return e.Gate(1).Irecv(p, 1, make([]byte, 8)).Wait(p) // nobody sends
		})
		if err != nil {
			t.Fatal(err)
		}
		j.Wait(p)
		t.Error("Job.Wait returned on a job that cannot finish")
	})
	var dl *sim.DeadlockError
	if err := w.Run(); !errors.As(err, &dl) {
		t.Fatalf("Run() = %v, want *sim.DeadlockError", err)
	}
	if len(dl.Blocked) != 2 || dl.Blocked[1] != "waits-on-job" {
		t.Errorf("blocked = %v, want the stuck job's process and waits-on-job", dl.Blocked)
	}
}
