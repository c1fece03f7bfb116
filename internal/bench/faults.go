package bench

import (
	"fmt"

	"nmad/internal/core"
	"nmad/internal/scenario"
	"nmad/internal/sim"
	"nmad/internal/simnet"
)

// The figures whose workload is a scenario run it through scenario.Run:
// the incast overload, and collectives and the ring exchange at emulation
// scale on a fabric that drops packets, measuring what the reliability
// layer costs, each as a one-phase scenario (runPhase); and two tenants
// sharing one engine through the job queue (tenantIsolation). Every run
// verifies payload integrity — a figure is only emitted if zero payloads
// were lost, truncated or duplicated.

// faultSeed seeds every fault profile the lossy figures build: the same
// seed reproduces the same drops, and therefore the same completion
// numbers, bit for bit.
const faultSeed uint64 = 42

// faultStamp renders a profile compactly for the Series stamp.
func faultStamp(fp simnet.FaultProfile) string {
	if len(fp.Rails) == 0 {
		return ""
	}
	r := fp.Rails[0]
	s := fmt.Sprintf("drop=%g%%", 100*r.DropProb)
	if r.DupProb > 0 {
		s += fmt.Sprintf(" dup=%g%%", 100*r.DupProb)
	}
	if r.ReorderProb > 0 {
		s += fmt.Sprintf(" reorder=%g%%", 100*r.ReorderProb)
	}
	return s
}

// runPhase runs ph as a one-phase scenario on an MX cluster of nodes
// engines configured by opts, the rail dropping packets at rate drop
// under seed (lossless at 0). Every payload is verified: a corrupted one
// fails the run's integrity assertion, and with it the point.
func runPhase(wk *sim.Work, nodes int, opts core.Options, drop float64, seed uint64, ph scenario.PhaseSpec) (*scenario.Report, error) {
	sc := &scenario.Scenario{
		Name:       ph.Kind,
		Cluster:    scenario.ClusterSpec{Nodes: nodes, Rails: []string{"mx10g"}, Engine: opts.NodeConfig},
		Phases:     []scenario.PhaseSpec{ph},
		Assertions: []scenario.AssertSpec{{Type: "integrity"}},
	}
	if drop > 0 {
		fp := simnet.UniformLoss(seed, drop, 1)
		sc.Cluster.Faults = &fp
	}
	return scenario.Run(sc, scenario.Config{Work: wk})
}

// figScaleNodes sweeps the emulated job size from 8 to 1024 nodes:
// barrier and allgather completion, lossless vs 1% drop, reliability on
// throughout. The paper runs on real clusters; this is where the
// simulation goes beyond them.
func figScaleNodes(wk *sim.Work) (Figure, error) {
	fig := Figure{
		ID: "scale-nodes", Title: "Scale — collective completion vs emulated job size (MX, reliability on)",
		XLabel: "nodes", YLabel: "completion (µs)",
		Notes: []string{
			"dissemination barrier and 64B-per-rank allgather; every payload verified intact",
			fmt.Sprintf("fault seed %d; drop applies per packet on the single MX rail", faultSeed),
		},
	}
	nodes := []int{8, 64, 256, 1024}
	opts := core.DefaultOptions()
	opts.Reliability = true
	barrier := scenario.PhaseSpec{Kind: "barrier", Msgs: 1, Count: 1}
	allgather := scenario.PhaseSpec{Kind: "allgather", Msgs: 1, Size: 64, Count: 1}
	cases := []struct {
		label string
		phase scenario.PhaseSpec
		drop  float64
	}{
		{"barrier lossless", barrier, 0},
		{"barrier 1% drop", barrier, 0.01},
		{"allgather lossless", allgather, 0},
		{"allgather 1% drop", allgather, 0.01},
	}
	for _, c := range cases {
		s := Series{Label: c.label, Strategy: "aggreg"}
		if c.drop > 0 {
			s.Seed = faultSeed
			s.Faults = faultStamp(simnet.UniformLoss(faultSeed, c.drop, 1))
		}
		retrans := 0
		for _, n := range nodes {
			rep, err := runPhase(wk, n, opts, c.drop, faultSeed, c.phase)
			if err != nil {
				return fig, err
			}
			s.Points = append(s.Points, Point{X: n, Y: rep.Completion.Microseconds()})
			for _, st := range rep.Stats {
				retrans += st.Retransmits
			}
		}
		if c.drop > 0 {
			fig.Notes = append(fig.Notes, fmt.Sprintf("%s: %d retransmissions across the sweep", c.label, retrans))
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}

// tenantIsolation runs the two-tenant workload on 4 MX nodes under the
// prio strategy, both tenants submitting through node 0's job queue. The
// victim tenant (class latency, so its sends carry Priority) pingpongs
// 16 x 64 B with node 1; when msgs > 0 the burst tenant (class bulk)
// floods nodes 2 and 3 from node 0 with msgs x 4 KB each, one incast
// phase per sink. Three workers run every job at once: contention is on
// the shared engine, not in the queue. Phase 0 of the report is the
// victim; phases 1 and 2 are the burst.
func tenantIsolation(wk *sim.Work, msgs int) (*scenario.Report, error) {
	opts := strategy("prio")
	sc := &scenario.Scenario{
		Name:    "tenant-isolation",
		Cluster: scenario.ClusterSpec{Nodes: 4, Rails: []string{"mx10g"}, Engine: opts.NodeConfig},
		Tenants: []scenario.TenantSpec{
			{Name: "burst", Weight: 1, Class: "bulk"},
			{Name: "victim", Weight: 4, Class: "latency"},
		},
		Queue: &scenario.QueueSpec{Workers: 3},
		Phases: []scenario.PhaseSpec{
			{Name: "victim", Kind: "pingpong", Tenant: "victim", Nodes: []int{0, 1}, Msgs: 1, Count: 16, Size: 64},
		},
		Assertions: []scenario.AssertSpec{{Type: "integrity"}},
	}
	if msgs > 0 {
		// Validate wants strictly increasing starts: the second sink's
		// phase is submitted 1 ns after the first.
		for i, sink := range []int{2, 3} {
			sc.Phases = append(sc.Phases, scenario.PhaseSpec{
				Name: fmt.Sprintf("burst-%d", sink), Kind: "incast", At: sim.Time(i + 1), Tenant: "burst",
				Target: sink, Senders: []int{0}, Msgs: msgs, Count: 1, Size: 4 << 10,
			})
		}
	}
	return scenario.Run(sc, scenario.Config{Work: wk})
}

// figTenantIsolation sweeps the burst intensity and plots the victim's
// completion time against its unloaded baseline — the tenant-isolation
// claim as a trend-gated figure.
func figTenantIsolation(wk *sim.Work) (Figure, error) {
	fig := Figure{
		ID:     "tenant-isolation",
		Title:  "Multi-tenant isolation — victim pingpong vs competing incast burst (MX, prio, job queue on node 0)",
		XLabel: "burst messages per sink (4KB each, two sinks)",
		YLabel: "completion (µs)",
		Notes: []string{
			"victim: 16 x 64B priority pingpong; acceptance: loaded within 2x unloaded while the burst completes",
		},
	}
	unloaded, err := tenantIsolation(wk, 0)
	if err != nil {
		return fig, err
	}
	loadedS := Series{Label: "victim[under-burst]", Strategy: "prio"}
	baseS := Series{Label: "victim[unloaded]", Strategy: "prio"}
	burstS := Series{Label: "burst[completion]", Strategy: "prio"}
	for _, msgs := range []int{8, 32, 128} {
		rep, err := tenantIsolation(wk, msgs)
		if err != nil {
			return fig, err
		}
		burst := max(rep.Phases[1].End, rep.Phases[2].End)
		loadedS.Points = append(loadedS.Points, Point{X: msgs, Y: rep.Phases[0].End.Microseconds()})
		baseS.Points = append(baseS.Points, Point{X: msgs, Y: unloaded.Phases[0].End.Microseconds()})
		burstS.Points = append(burstS.Points, Point{X: msgs, Y: burst.Microseconds()})
	}
	fig.Series = []Series{loadedS, baseS, burstS}
	return fig, nil
}
