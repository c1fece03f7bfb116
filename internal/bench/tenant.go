package bench

import (
	"fmt"

	"nmad/internal/core"
	"nmad/internal/queue"
	"nmad/internal/sim"
	"nmad/internal/simnet"
)

// The tenant-isolation workload: two tenants share node 0's engine
// through the multi-tenant job queue. The burst tenant (class bulk)
// floods eager traffic at nodes 2 and 3 while the victim tenant (class
// latency) runs a small pingpong against node 1. The isolation claim is
// that the victim's completion time under the competing burst stays
// close to its unloaded time — the queue classes pick the dispatch
// order, and the prio strategy plus the Priority() send flag keep the
// victim's wrappers from riding behind bulk trains on the wire.

// tenantIsolationConfig parameterizes one run.
type tenantIsolationConfig struct {
	// BurstMsgs eager messages of BurstSize bytes go from node 0 to each
	// of nodes 2 and 3. BurstMsgs = 0 disables the burst tenant — the
	// victim's unloaded baseline.
	BurstMsgs int
	BurstSize int
	// Iters pingpong round trips of RPCSize bytes between nodes 0 and 1.
	Iters   int
	RPCSize int
}

// tenantIsolationResult is what one run measured.
type tenantIsolationResult struct {
	// VictimUs / BurstUs are each tenant's submit-to-completion virtual
	// time. BurstUs is 0 when the burst is disabled.
	VictimUs float64
	BurstUs  float64
	// Stats is node 0's end-of-run engine snapshot (queue counters
	// included).
	Stats core.Stats
}

// tenantIsolation runs both tenants through a queue on node 0's engine
// (prio strategy, one MX rail, 4 nodes) and verifies every payload.
func tenantIsolation(cfg tenantIsolationConfig) (tenantIsolationResult, error) {
	if cfg.Iters < 1 || cfg.RPCSize < 1 {
		return tenantIsolationResult{}, fmt.Errorf("bench: tenant isolation needs a victim workload, got %+v", cfg)
	}
	f, err := simnet.Machine{Nodes: 4, Rails: []simnet.Profile{simnet.MX10G()}}.Build()
	if err != nil {
		return tenantIsolationResult{}, err
	}
	w := f.World()
	opts := core.DefaultOptions()
	opts.Strategy = "prio"
	engines, err := core.NewEngines(f, func(int) core.Options { return opts })
	if err != nil {
		return tenantIsolationResult{}, err
	}

	q, err := queue.New(engines[0], queue.Config{
		Workers: 2, // both tenants run; contention is on the shared engine
		Tenants: []queue.TenantSpec{
			{Name: "burst", Weight: 1, Class: queue.ClassBulk},
			{Name: "victim", Weight: 4, Class: queue.ClassLatency},
		},
	})
	if err != nil {
		return tenantIsolationResult{}, err
	}

	var res tenantIsolationResult
	grp := sim.NewGroup(w)
	// submit queues fn as the tenant's one job and spawns the watcher
	// that stamps its completion time.
	submit := func(tenant, name string, doneUs *float64, fn func(p *sim.Proc) error) {
		job, err := q.Submit(tenant, name, fn)
		if err != nil {
			grp.Fail(err)
			return
		}
		grp.Go(tenant+"-watch", func(p *sim.Proc) error {
			if err := job.Wait(p); err != nil {
				return fmt.Errorf("%s job: %w", tenant, err)
			}
			*doneUs = p.Now().Microseconds()
			return nil
		})
	}

	// The victim's remote peer: echo every round trip from node 1.
	victim, _ := q.Tenant("victim")
	grp.Go("victim-echo", func(p *sim.Proc) error {
		g := engines[1].Gate(0)
		buf := make([]byte, cfg.RPCSize)
		for it := 0; it < cfg.Iters; it++ {
			if _, err := g.Recv(p, tagged(100), buf); err != nil {
				return fmt.Errorf("victim echo recv: %w", err)
			}
			if err := g.Isend(p, tagged(101), buf).Wait(p); err != nil {
				return fmt.Errorf("victim echo send: %w", err)
			}
		}
		return nil
	})
	// Burst sinks on nodes 2 and 3 verify the flood byte for byte.
	if cfg.BurstMsgs > 0 {
		for _, sink := range []int{2, 3} {
			grp.Go(fmt.Sprintf("burst-sink-%d", sink), func(p *sim.Proc) error {
				_, err := drain(p, engines[sink].Gate(0), sink, cfg.BurstMsgs, cfg.BurstSize)
				return err
			})
		}
	}

	w.At(0, func() {
		if cfg.BurstMsgs > 0 {
			submit("burst", "incast", &res.BurstUs, func(p *sim.Proc) error {
				reqs := make([]core.Request, 0, 2*cfg.BurstMsgs)
				for m := 0; m < cfg.BurstMsgs; m++ {
					for _, sink := range []int{2, 3} {
						buf := make([]byte, cfg.BurstSize)
						fill(buf, sink, m)
						reqs = append(reqs, engines[0].Gate(simnet.NodeID(sink)).Isend(p, tagged(sink), buf))
					}
				}
				return core.WaitAll(p, reqs...)
			})
		}
		submit("victim", "pingpong", &res.VictimUs, func(p *sim.Proc) error {
			g := engines[0].Gate(1)
			buf := make([]byte, cfg.RPCSize)
			for it := 0; it < cfg.Iters; it++ {
				fill(buf, 0, it)
				if err := g.Isend(p, tagged(100), buf, victim.SendOptions()...).Wait(p); err != nil {
					return fmt.Errorf("victim send: %w", err)
				}
				if _, err := g.Recv(p, tagged(101), buf); err != nil {
					return fmt.Errorf("victim recv: %w", err)
				}
				if !intact(buf, 0, it) {
					return fmt.Errorf("victim: corrupt payload in iter %d", it)
				}
			}
			return nil
		})
	})

	if err := grp.Run(); err != nil {
		return res, fmt.Errorf("bench: tenant isolation (%d burst msgs): %w", cfg.BurstMsgs, err)
	}
	res.Stats = engines[0].Stats()
	return res, nil
}

// figTenantIsolation sweeps the burst intensity and plots the victim's
// completion time against its unloaded baseline — the tenant-isolation
// claim as a trend-gated figure.
func figTenantIsolation() (Figure, error) {
	fig := Figure{
		ID:     "tenant-isolation",
		Title:  "Multi-tenant isolation — victim pingpong vs competing incast burst (MX, prio, job queue on node 0)",
		XLabel: "burst messages per sink (4KB each, two sinks)",
		YLabel: "completion (µs)",
		Notes: []string{
			"victim: 16 x 64B priority pingpong; acceptance: loaded within 2x unloaded while the burst completes",
		},
	}
	base := tenantIsolationConfig{BurstSize: 4 << 10, Iters: 16, RPCSize: 64}
	unloadedCfg := base
	unloadedCfg.BurstMsgs = 0
	unloaded, err := tenantIsolation(unloadedCfg)
	if err != nil {
		return fig, err
	}
	sweeps := []int{8, 32, 128}
	loadedS := Series{Label: "victim[under-burst]", Strategy: "prio"}
	baseS := Series{Label: "victim[unloaded]", Strategy: "prio"}
	burstS := Series{Label: "burst[completion]", Strategy: "prio"}
	for _, msgs := range sweeps {
		cfg := base
		cfg.BurstMsgs = msgs
		r, err := tenantIsolation(cfg)
		if err != nil {
			return fig, err
		}
		loadedS.Points = append(loadedS.Points, Point{X: msgs, Y: r.VictimUs})
		baseS.Points = append(baseS.Points, Point{X: msgs, Y: unloaded.VictimUs})
		burstS.Points = append(burstS.Points, Point{X: msgs, Y: r.BurstUs})
	}
	fig.Series = []Series{loadedS, baseS, burstS}
	return fig, nil
}
