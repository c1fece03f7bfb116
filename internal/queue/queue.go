// Package queue is the multi-tenant front end: a bounded job queue and
// worker dispatcher that admits many independent client workloads onto
// one optimizing engine.
//
// Each tenant owns a priority class and a fair-share weight. Dispatch
// order is decided per slot, highest effective class first, where the
// effective class of a tenant's backlog head rises the longer it waits
// (aging) — a latency-class tenant wins promptly, but a bulk tenant
// whose head job has aged past the boost interval catches up, so no
// tenant starves. Within a class level, tenants alternate by stride
// scheduling: each dispatch advances the tenant's virtual pass by
// strideScale/weight, and the lowest pass goes next, so a weight-4
// tenant gets four slots for a weight-1 tenant's one.
//
// The queue reports through the engine it dispatches onto: admission,
// rejection, dispatch latency, aging and depth counters land in
// core.Stats (jobs_admitted, peak_job_wait, ... in scenario assertion
// tables) next to the communication counters the jobs produce.
package queue

import (
	"errors"
	"fmt"
	"slices"

	"nmad/internal/core"
	"nmad/internal/sim"
)

// Sentinel errors. Match with errors.Is; Submit wraps them with the
// tenant and queue context.
var (
	// ErrQueueFull rejects a submission when the backlog is at capacity.
	ErrQueueFull = errors.New("queue: backlog full")
	// ErrUnknownTenant rejects a submission naming an undeclared tenant.
	ErrUnknownTenant = errors.New("queue: unknown tenant")
	// ErrBadConfig reports an invalid Config to New.
	ErrBadConfig = errors.New("queue: bad config")
)

// Class is a tenant's priority class. Higher classes dispatch first;
// aging lifts a waiting tenant's effective class one level per aging
// interval so lower classes cannot starve.
type Class int

const (
	// ClassBulk is throughput traffic that tolerates queueing.
	ClassBulk Class = iota
	// ClassNormal is the default class.
	ClassNormal
	// ClassLatency is latency-sensitive traffic; its jobs' sends should
	// carry Priority() (see Tenant.SendOptions) so the engine's prio
	// paths preempt bulk trains on the wire too.
	ClassLatency
)

// classNames is the scenario-file spelling of each class, in class order.
var classNames = [...]string{ClassBulk: "bulk", ClassNormal: "normal", ClassLatency: "latency"}

// ClassNames lists the class spellings ClassByName accepts, lowest class
// first.
func ClassNames() []string { return slices.Clone(classNames[:]) }

func (c Class) String() string {
	if c < 0 || int(c) >= len(classNames) {
		return fmt.Sprintf("Class(%d)", int(c))
	}
	return classNames[c]
}

// ClassByName maps the scenario-file spelling to a Class.
func ClassByName(name string) (Class, bool) {
	if i := slices.Index(classNames[:], name); i >= 0 {
		return Class(i), true
	}
	return 0, false
}

// TenantSpec declares one tenant at queue construction.
type TenantSpec struct {
	Name   string
	Weight int // fair-share weight, >= 1
	Class  Class
}

// Config sizes the queue.
type Config struct {
	// Capacity bounds the backlog (queued, undispatched jobs) across all
	// tenants; submissions beyond it are rejected with ErrQueueFull.
	// 0 means defaultCapacity.
	Capacity int
	// Workers bounds concurrently running jobs. 0 means defaultWorkers.
	Workers int
	// Aging is the waiting time that lifts a backlog head's effective
	// class by one level. 0 means defaultAging.
	Aging sim.Time
	// Tenants declares the tenant set; at least one is required.
	Tenants []TenantSpec
}

// Defaults for zero Config fields.
const (
	defaultCapacity = 256
	defaultWorkers  = 4
	defaultAging    = sim.Time(1_000_000) // 1ms of virtual time
)

// strideScale is the virtual-pass numerator: pass advances by
// strideScale/weight per dispatch, so higher weight means smaller
// steps and more slots.
const strideScale = 1 << 16

// TenantStats is the per-tenant slice of the queue counters.
type TenantStats struct {
	Admitted   int
	Rejected   int
	Dispatched int
	Completed  int
	Aged       int
	PeakWait   sim.Time
}

// Tenant is one registered workload source.
type Tenant struct {
	spec  TenantSpec
	pass  int64 // stride virtual time; lowest runs next within a class
	heads []*Job
	stats TenantStats
}

// Name returns the tenant's declared name.
func (t *Tenant) Name() string { return t.spec.Name }

// Class returns the tenant's priority class.
func (t *Tenant) Class() Class { return t.spec.Class }

// Weight returns the tenant's fair-share weight.
func (t *Tenant) Weight() int { return t.spec.Weight }

// Stats returns a snapshot of the tenant's queue counters.
func (t *Tenant) Stats() TenantStats { return t.stats }

// SendOptions returns the send options a tenant's jobs should attach so
// the engine's scheduling matches the queue-level class: latency-class
// traffic goes out with Priority(), everything else rides the default
// aggregation path.
func (t *Tenant) SendOptions() []core.SendOption {
	if t.spec.Class == ClassLatency {
		return []core.SendOption{core.Priority()}
	}
	return nil
}

// Job is one submitted unit of work.
type Job struct {
	tenant *Tenant
	name   string
	fn     func(p *sim.Proc) error
	waiter *sim.Proc // the process in Wait, unparked at completion

	submitted  sim.Time
	dispatched sim.Time
	completed  sim.Time
	done       bool
	err        error
}

// Tenant returns the tenant the job was submitted under.
func (j *Job) Tenant() *Tenant { return j.tenant }

// Name returns the label given at Submit.
func (j *Job) Name() string { return j.name }

// Done reports whether the job's body has finished.
func (j *Job) Done() bool { return j.done }

// Err returns the job body's error, valid once Done.
func (j *Job) Err() error { return j.err }

// Submitted, Dispatched and Completed are the job's queue timeline;
// Dispatched and Completed are zero until the respective transition.
func (j *Job) Submitted() sim.Time  { return j.submitted }
func (j *Job) Dispatched() sim.Time { return j.dispatched }
func (j *Job) Completed() sim.Time  { return j.completed }

// Wait blocks the calling proc until the job completes. As with a
// request, one process waits on a job at a time.
func (j *Job) Wait(p *sim.Proc) error {
	for !j.done {
		j.waiter = p
		p.Park()
	}
	return j.err
}

// Queue is the dispatcher. Like the engine it feeds, it is
// single-world, single-threaded: all methods must run on the world's
// scheduler (procs, timers, callbacks).
type Queue struct {
	eng *core.Engine
	cfg Config

	tenants []*Tenant // registration order: the deterministic tiebreak
	byName  map[string]*Tenant

	queued int   // backlog across all tenants
	active int   // running worker procs
	vtime  int64 // stride clock: max pass dispatched so far
	serial int   // names worker procs uniquely
}

// New builds a queue dispatching onto eng's world.
func New(eng *core.Engine, cfg Config) (*Queue, error) {
	if cfg.Capacity == 0 {
		cfg.Capacity = defaultCapacity
	}
	if cfg.Workers == 0 {
		cfg.Workers = defaultWorkers
	}
	if cfg.Aging == 0 {
		cfg.Aging = defaultAging
	}
	if cfg.Capacity < 0 || cfg.Workers < 0 || cfg.Aging < 0 {
		return nil, fmt.Errorf("%w: negative capacity, workers or aging", ErrBadConfig)
	}
	if len(cfg.Tenants) == 0 {
		return nil, fmt.Errorf("%w: at least one tenant required", ErrBadConfig)
	}
	q := &Queue{
		eng:    eng,
		cfg:    cfg,
		byName: make(map[string]*Tenant, len(cfg.Tenants)),
	}
	for _, ts := range cfg.Tenants {
		if ts.Name == "" {
			return nil, fmt.Errorf("%w: tenant with empty name", ErrBadConfig)
		}
		if _, dup := q.byName[ts.Name]; dup {
			return nil, fmt.Errorf("%w: duplicate tenant %q", ErrBadConfig, ts.Name)
		}
		if ts.Weight < 1 {
			return nil, fmt.Errorf("%w: tenant %q weight %d < 1", ErrBadConfig, ts.Name, ts.Weight)
		}
		if ts.Class < ClassBulk || ts.Class > ClassLatency {
			return nil, fmt.Errorf("%w: tenant %q class %d out of range", ErrBadConfig, ts.Name, ts.Class)
		}
		t := &Tenant{spec: ts}
		q.tenants = append(q.tenants, t)
		q.byName[ts.Name] = t
	}
	return q, nil
}

// Engine returns the engine the queue dispatches onto.
func (q *Queue) Engine() *core.Engine { return q.eng }

// Tenant looks up a tenant by name.
func (q *Queue) Tenant(name string) (*Tenant, bool) {
	t, ok := q.byName[name]
	return t, ok
}

// Depth returns the current backlog size (queued, not yet dispatched).
func (q *Queue) Depth() int { return q.queued }

// Active returns the number of running worker procs.
func (q *Queue) Active() int { return q.active }

// Submit admits a job for the named tenant. The body runs on its own
// worker proc once a slot opens and the tenant wins a dispatch; sends
// inside it should attach tenant.SendOptions(). Submit is safe from any
// world context (callbacks, procs) and never blocks: over-capacity
// submissions are rejected with ErrQueueFull.
func (q *Queue) Submit(tenant, name string, fn func(p *sim.Proc) error) (*Job, error) {
	t, ok := q.byName[tenant]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownTenant, tenant)
	}
	if q.queued >= q.cfg.Capacity {
		t.stats.Rejected++
		q.eng.NoteJobRejected()
		return nil, fmt.Errorf("%w: %q rejected for tenant %q at depth %d", ErrQueueFull, name, tenant, q.queued)
	}
	j := &Job{tenant: t, name: name, fn: fn, submitted: q.eng.World().Now()}
	if len(t.heads) == 0 {
		// Re-entering tenants resume at the current stride clock rather
		// than their stale pass: an idle tenant must not bank credit and
		// then monopolize the workers on return.
		t.pass = max(t.pass, q.vtime)
	}
	t.heads = append(t.heads, j)
	q.queued++
	t.stats.Admitted++
	q.eng.NoteJobAdmitted(q.queued)
	q.dispatch()
	return j, nil
}

// effective is the backlog head's aged class level: one level per
// full Aging interval waited, on top of the tenant's declared class.
func (q *Queue) effective(t *Tenant, now sim.Time) (level int64, aged bool) {
	waited := now - t.heads[0].submitted
	boost := int64(waited / q.cfg.Aging)
	return int64(t.spec.Class) + boost, boost > 0
}

// pick selects the next tenant to dispatch, or nil when the backlog is
// empty: highest aged class level first, then lowest stride pass, then
// registration order. Pure function of queue state — the determinism
// the scenario harness and bench figures rely on.
func (q *Queue) pick(now sim.Time) (*Tenant, bool) {
	var best *Tenant
	var bestLevel int64
	bestAged := false
	for _, t := range q.tenants {
		if len(t.heads) == 0 {
			continue
		}
		level, aged := q.effective(t, now)
		if best == nil || level > bestLevel || (level == bestLevel && t.pass < best.pass) {
			best, bestLevel, bestAged = t, level, aged
		}
	}
	return best, bestAged
}

// dispatch fills open worker slots. Event-driven: each job runs on a
// fresh proc spawned at dispatch (parked worker procs would read as a
// deadlock to the world's termination detection), and completion both
// wakes the job's waiter and re-runs dispatch for the freed slot.
func (q *Queue) dispatch() {
	now := q.eng.World().Now()
	for q.active < q.cfg.Workers {
		t, aged := q.pick(now)
		if t == nil {
			return
		}
		j := t.heads[0]
		t.heads = t.heads[1:]
		q.queued--
		q.active++
		q.vtime = t.pass
		t.pass += strideScale / int64(t.spec.Weight)
		j.dispatched = now
		wait := now - j.submitted
		t.stats.Dispatched++
		if aged {
			t.stats.Aged++
		}
		if wait > t.stats.PeakWait {
			t.stats.PeakWait = wait
		}
		q.eng.NoteJobDispatched(wait, aged)
		q.serial++
		pname := fmt.Sprintf("queue/%s/%s#%d", t.spec.Name, j.name, q.serial)
		q.eng.World().Spawn(pname, func(p *sim.Proc) {
			j.err = j.fn(p)
			j.completed = p.Now()
			j.done = true
			j.tenant.stats.Completed++
			q.active--
			q.eng.NoteJobCompleted()
			j.waiter.Unpark()
			q.dispatch()
		})
	}
}
