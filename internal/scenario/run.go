package scenario

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"

	"nmad/internal/core"
	"nmad/internal/madmpi"
	"nmad/internal/queue"
	"nmad/internal/sim"
	"nmad/internal/simnet"
	"nmad/internal/trace"
)

// Load reads, parses and validates one scenario file. Validation
// failures come back joined, each wrapping its sentinel.
func Load(path string) (*Scenario, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	sc, err := Parse(src)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if errs := Validate(sc); len(errs) > 0 {
		for i, e := range errs {
			errs[i] = fmt.Errorf("%s: %w", path, e)
		}
		return nil, errors.Join(errs...)
	}
	return sc, nil
}

// Config adjusts one run of a scenario.
type Config struct {
	// Record, when non-nil, captures the offered load of the run (the
	// PR-5 record/replay format), stamped with the scenario name and
	// fault seed.
	Record *trace.Recording
	// Verbose, when non-nil, streams phase/event progress lines.
	Verbose io.Writer
}

// PhaseReport is one phase's outcome in the report.
type PhaseReport struct {
	Name      string
	Kind      string
	Tenant    string
	Start     sim.Time
	End       sim.Time
	Done      bool
	Integrity int
}

// Report is the outcome of one scenario run.
type Report struct {
	Scenario string
	// Completion is when the last phase finished; Drained when the
	// world went idle (retransmit tails and probes included).
	Completion sim.Time
	Drained    sim.Time
	Phases     []PhaseReport
	Results    []AssertResult
	// Stats / Faults are the end-of-run counters the assertions saw.
	Stats  []core.Stats
	Faults []simnet.FaultStats
	// ProcErrors lists engine-level errors phases absorbed (a truncated
	// receive, a closed gate); usually empty.
	ProcErrors []string
}

// Failures counts assertions that did not hold.
func (rep *Report) Failures() int {
	n := 0
	for _, r := range rep.Results {
		if !r.OK {
			n++
		}
	}
	return n
}

// Write renders the report as stable text.
func (rep *Report) Write(w io.Writer) {
	fmt.Fprintf(w, "scenario %s: completion %v, drained %v\n", rep.Scenario, rep.Completion, rep.Drained)
	for _, ph := range rep.Phases {
		state := "completed"
		if !ph.Done {
			state = "DID NOT COMPLETE"
		}
		tenant := ""
		if ph.Tenant != "" {
			tenant = " tenant=" + ph.Tenant
		}
		fmt.Fprintf(w, "  phase %-16s %-10s%s %v -> %v  %s", ph.Name, ph.Kind, tenant, ph.Start, ph.End, state)
		if ph.Integrity > 0 {
			fmt.Fprintf(w, "  (%d corrupted payloads)", ph.Integrity)
		}
		fmt.Fprintln(w)
	}
	for _, res := range rep.Results {
		fmt.Fprintf(w, "  %s\n", res)
	}
	for _, e := range rep.ProcErrors {
		fmt.Fprintf(w, "  proc error: %s\n", e)
	}
	fmt.Fprintf(w, "  assertions: %d passed, %d failed\n", len(rep.Results)-rep.Failures(), rep.Failures())
}

// runner holds the live state of one scenario run.
type runner struct {
	cfg       Config
	world     *sim.World
	fabric    *simnet.Fabric
	mpis      []*madmpi.MPI
	phases    []*phaseRun
	snapshots map[string]*snapshot
	procErrs  []string
	// queue is the multi-tenant job queue (nil unless the scenario
	// declares tenants).
	queue *queue.Queue
}

func (r *runner) nodes() int { return r.fabric.Nodes() }

func (r *runner) comm(rank int) *madmpi.Comm { return r.mpis[rank].CommWorld() }

// procErr records an engine-level error a phase process absorbed.
func (r *runner) procErr(phase string, err error) {
	r.procErrs = append(r.procErrs, fmt.Sprintf("phase %s: %v", phase, err))
}

func (r *runner) logf(format string, args ...any) {
	if r.cfg.Verbose != nil {
		fmt.Fprintf(r.cfg.Verbose, format+"\n", args...)
	}
}

// snapshot captures the observable state of the run right now.
func (r *runner) snapshot() *snapshot {
	s := &snapshot{}
	for _, m := range r.mpis {
		s.Stats = append(s.Stats, m.Engine().Stats())
	}
	for _, net := range r.fabric.Networks() {
		s.Faults = append(s.Faults, net.FaultStats())
	}
	return s
}

// Run executes one validated scenario and evaluates its assertions. The
// returned error wraps ErrAssertFailed when the run completed but an
// assertion did not hold; the Report is returned alongside either way.
func Run(sc *Scenario, cfg Config) (*Report, error) {
	if errs := Validate(sc); len(errs) > 0 {
		return nil, errors.Join(errs...)
	}
	c := sc.Cluster

	f, err := c.machine().Build()
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", sc.Name, err)
	}
	w := f.World()
	r := &runner{
		cfg: cfg, world: w, fabric: f,
		snapshots: map[string]*snapshot{},
	}

	if r.mpis, err = madmpi.InitAll(f, core.Options{NodeConfig: c.Engine, Record: cfg.Record}); err != nil {
		return nil, fmt.Errorf("scenario %s: %w", sc.Name, err)
	}
	if len(sc.Tenants) > 0 {
		qnode := 0
		var qcfg queue.Config
		if sc.Queue != nil {
			qnode = sc.Queue.Node
			qcfg.Capacity = sc.Queue.Capacity
			qcfg.Workers = sc.Queue.Workers
			qcfg.Aging = sc.Queue.Aging
		}
		for _, t := range sc.Tenants {
			cls, _ := queue.ClassByName(t.Class) // Validate vetted the name
			qcfg.Tenants = append(qcfg.Tenants, queue.TenantSpec{
				Name: t.Name, Weight: t.Weight, Class: cls,
			})
		}
		q, err := queue.New(r.mpis[qnode].Engine(), qcfg)
		if err != nil {
			return nil, fmt.Errorf("scenario %s: queue: %w", sc.Name, err)
		}
		r.queue = q
	}
	if cfg.Record != nil {
		cfg.Record.SetMeta("scenario", sc.Name)
		seed := uint64(0)
		if c.Faults != nil {
			seed = c.Faults.Seed
		}
		cfg.Record.SetMeta("seed", strconv.FormatUint(seed, 10))
	}

	// The timeline: phases at their start instants, events at theirs.
	// Tenant-tagged phases on a multi-tenant run are submitted to the
	// queue at their instant instead; fair-share dispatch decides when
	// each actually starts. The job holds its worker slot until the
	// phase's last process finishes, so the queue's worker bound caps
	// concurrently running tenant phases.
	for i, p := range sc.Phases {
		pr := &phaseRun{spec: p, index: i}
		r.phases = append(r.phases, pr)
		if phaseKinds[p.Kind].collective {
			pr.comms = make([]*madmpi.Comm, c.Nodes)
			for rank := range pr.comms {
				pr.comms[rank] = r.mpis[rank].CommWorld().Dup()
			}
		}
		w.At(p.At, func() {
			if r.queue != nil && pr.spec.Tenant != "" {
				r.logf("%v: phase %s (%s) submitted for tenant %s", w.Now(), pr.spec.Name, pr.spec.Kind, pr.spec.Tenant)
				_, err := r.queue.Submit(pr.spec.Tenant, pr.spec.Name, func(q *sim.Proc) error {
					r.logf("%v: phase %s (%s) dispatched", q.Now(), pr.spec.Name, pr.spec.Kind)
					r.startPhase(pr)
					for !pr.done {
						pr.waiter = q
						q.Park()
					}
					return nil
				})
				if err != nil {
					r.procErr(pr.spec.Name, err)
				}
				return
			}
			r.logf("%v: phase %s (%s) starts", w.Now(), pr.spec.Name, pr.spec.Kind)
			r.startPhase(pr)
		})
	}
	for _, e := range sc.Events {
		w.At(e.At, func() { r.fireEvent(e) })
	}

	runErr := w.Run()

	rep := &Report{Scenario: sc.Name, Drained: w.Now()}
	for _, pr := range r.phases {
		rep.Phases = append(rep.Phases, PhaseReport{
			Name: pr.spec.Name, Kind: pr.spec.Kind, Tenant: pr.spec.Tenant,
			Start: pr.start, End: pr.end, Done: pr.done, Integrity: pr.integrity,
		})
		if pr.done && pr.end > rep.Completion {
			rep.Completion = pr.end
		}
	}
	final := r.snapshot()
	rep.Stats = final.Stats
	rep.Faults = final.Faults
	rep.ProcErrors = r.procErrs
	if runErr != nil {
		return rep, fmt.Errorf("scenario %s: %w", sc.Name, runErr)
	}

	ctx := &evalContext{
		snapshots: r.snapshots,
		phases:    map[string]*phaseRun{},
		runEnd:    rep.Completion,
	}
	ctx.snapshots["end"] = final
	for _, pr := range r.phases {
		ctx.phases[pr.spec.Name] = pr
		ctx.integrity += pr.integrity
	}
	for _, a := range sc.Assertions {
		rep.Results = append(rep.Results, ctx.eval(a))
	}
	// Phases that never completed fail the run even without an explicit
	// assertion — a scenario whose workload hangs is broken.
	incomplete := 0
	for _, pr := range r.phases {
		if !pr.done {
			incomplete++
		}
	}
	if n := rep.Failures(); n > 0 || incomplete > 0 || len(r.procErrs) > 0 {
		return rep, fmt.Errorf("scenario %s: %d assertion(s) failed, %d phase(s) incomplete, %d proc error(s): %w",
			sc.Name, n, incomplete, len(r.procErrs), ErrAssertFailed)
	}
	return rep, nil
}

// fireEvent applies one mid-run intervention. Runs in scheduler context
// at the event's instant.
func (r *runner) fireEvent(e EventSpec) {
	r.logf("%v: event %s", r.world.Now(), e.Action)
	eventActions[e.Action].fire(r, e)
}

// eventAction is one row of the event vocabulary: what Validate demands of
// an event with the action, and what the action does to the running
// cluster.
type eventAction struct {
	check func(v *validator, at loc, e EventSpec)
	fire  func(r *runner, e EventSpec)
}

var eventActions = map[string]eventAction{
	"degrade_rail": {
		check: func(v *validator, at loc, e EventSpec) {
			v.rail(at, e.Rail)
			if e.Scale <= 0 || e.Scale > 1 {
				v.bad(ErrBadValue, "%s: scale %v outside (0,1]", at, e.Scale)
			}
		},
		fire: func(r *runner, e EventSpec) { r.fabric.Networks()[e.Rail].SetWireScale(e.Scale) },
	},
	"restore_rail": {
		check: func(v *validator, at loc, e EventSpec) { v.rail(at, e.Rail) },
		fire:  func(r *runner, e EventSpec) { r.fabric.Networks()[e.Rail].SetWireScale(1) },
	},
	"set_faults": {
		check: func(v *validator, at loc, e EventSpec) {
			v.rail(at, e.Rail)
			v.probs(at, e.Drop, e.Dup, e.Reorder)
		},
		fire: func(r *runner, e EventSpec) {
			cfg := r.railFaults(e.Rail)
			cfg.DropProb, cfg.DupProb, cfg.ReorderProb = e.Drop, e.Dup, e.Reorder
			r.updateRail(e.Rail, cfg)
		},
	},
	"rail_outage": {
		check: func(v *validator, at loc, e EventSpec) {
			v.rail(at, e.Rail)
			if e.Duration < 0 {
				v.bad(ErrBadValue, "%s: negative duration", at)
			}
		},
		fire: func(r *runner, e EventSpec) {
			cfg := r.railFaults(e.Rail)
			cfg.Outages = append(append([]simnet.Outage(nil), cfg.Outages...),
				simnet.Outage{At: r.world.Now(), Duration: e.Duration})
			r.updateRail(e.Rail, cfg)
		},
	},
	"slow_node": {
		check: func(v *validator, at loc, e EventSpec) {
			v.node(at, e.Node)
			if e.Factor < 1 {
				v.bad(ErrBadValue, "%s: factor %v must be >= 1", at, e.Factor)
			}
		},
		fire: func(r *runner, e EventSpec) { r.fabric.Node(simnet.NodeID(e.Node)).SetSlowdown(e.Factor) },
	},
	"restore_node": {
		check: func(v *validator, at loc, e EventSpec) { v.node(at, e.Node) },
		fire:  func(r *runner, e EventSpec) { r.fabric.Node(simnet.NodeID(e.Node)).SetSlowdown(1) },
	},
	"squeeze_credits": {
		check: func(v *validator, at loc, e EventSpec) {
			v.node(at, e.Node)
			if e.Duration <= 0 {
				v.bad(ErrBadValue, "%s: squeeze_credits needs a positive duration (a permanent squeeze deadlocks the run)", at)
			}
		},
		fire: func(r *runner, e EventSpec) {
			eng := r.mpis[e.Node].Engine()
			eng.FreezeCredits(true)
			r.world.After(e.Duration, func() {
				r.logf("%v: event squeeze_credits on node %d released", r.world.Now(), e.Node)
				eng.FreezeCredits(false)
			})
		},
	},
	"checkpoint": {
		check: func(v *validator, at loc, e EventSpec) {
			if e.Name == "" {
				v.bad(ErrBadValue, "%s: a checkpoint needs a name", at)
			} else if v.checkpoints[e.Name] {
				v.bad(ErrBadValue, "%s: duplicate checkpoint %q", at, e.Name)
			}
			v.checkpoints[e.Name] = true
		},
		fire: func(r *runner, e EventSpec) { r.snapshots[e.Name] = r.snapshot() },
	},
}

// railFaults reads a rail's live fault configuration back from the
// fabric, the base a mid-run set_faults / rail_outage event builds on.
func (r *runner) railFaults(rail int) simnet.RailFaults {
	if fp := r.fabric.Machine().Faults; fp != nil {
		return fp.Rail(rail)
	}
	return simnet.RailFaults{}
}

// updateRail pushes a new rail fault configuration to the fabric.
func (r *runner) updateRail(rail int, cfg simnet.RailFaults) {
	if err := r.fabric.UpdateRailFaults(rail, cfg); err != nil {
		// Validate bounds every event parameter before the run; an
		// error here is a harness bug, not a scenario bug.
		panic(fmt.Sprintf("scenario: UpdateRailFaults: %v", err))
	}
}

// ListDir loads every *.yaml scenario in a directory, in name order.
// Parse or validation failures are returned per-file; readable
// scenarios still come back.
func ListDir(dir string) ([]*Scenario, map[string]error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, map[string]error{dir: err}
	}
	var names []string
	for _, ent := range entries {
		if ent.IsDir() {
			continue
		}
		if n := ent.Name(); len(n) > 5 && n[len(n)-5:] == ".yaml" {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	var out []*Scenario
	bad := map[string]error{}
	for _, n := range names {
		sc, err := Load(dir + "/" + n)
		if err != nil {
			bad[n] = err
			continue
		}
		out = append(out, sc)
	}
	if len(bad) == 0 {
		bad = nil
	}
	return out, bad
}
