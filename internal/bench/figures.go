package bench

import (
	"fmt"
	"sort"

	"nmad/internal/core"
	"nmad/internal/scenario"
	"nmad/internal/sim"
	"nmad/internal/simnet"
)

// Point is one measurement: X is the swept parameter (bytes), Y the
// metric (µs or MB/s).
type Point struct {
	X int     `json:"x"`
	Y float64 `json:"y"`
}

// Series is one implementation's curve. Strategy and EngineOptions stamp
// the engine configuration the series ran with (empty for non-MAD-MPI
// baselines), so a report is self-describing.
type Series struct {
	Label         string  `json:"label"`
	Strategy      string  `json:"strategy,omitempty"`
	EngineOptions string  `json:"engine_options,omitempty"`
	Seed          uint64  `json:"seed,omitempty"`
	Faults        string  `json:"fault_profile,omitempty"`
	Points        []Point `json:"points"`
}

// Figure is a regenerated paper figure (or table).
type Figure struct {
	ID     string   `json:"id"`
	Title  string   `json:"title"`
	XLabel string   `json:"x_label"`
	YLabel string   `json:"y_label"`
	Series []Series `json:"series"`
	Notes  []string `json:"notes,omitempty"`
}

// sizes returns the powers of two in [lo, hi], the paper's sweep grids.
func sizes(lo, hi int) []int {
	var out []int
	for s := lo; s <= hi; s *= 2 {
		out = append(out, s)
	}
	return out
}

func mxRails() []simnet.Profile { return []simnet.Profile{simnet.MX10G()} }

func qsRails() []simnet.Profile { return []simnet.Profile{simnet.QsNetII()} }

// sweep measures fn over sizes for each implementation, stamping each
// series with the implementation's engine configuration.
func sweep(impls []mpiImpl, sizes []int, fn func(mpiImpl, int) (float64, error)) ([]Series, error) {
	var out []Series
	for _, impl := range impls {
		s := Series{Label: impl.Name, Strategy: impl.Strategy, EngineOptions: impl.EngineOptions}
		for _, size := range sizes {
			y, err := fn(impl, size)
			if err != nil {
				return nil, err
			}
			s.Points = append(s.Points, Point{X: size, Y: y})
		}
		out = append(out, s)
	}
	return out, nil
}

// toBandwidth converts latency series (µs) to bandwidth (MB/s): bytes per
// microsecond equals megabytes per second. Everything but the points —
// label and engine stamps — carries over.
func toBandwidth(in []Series) []Series {
	out := make([]Series, len(in))
	for i, s := range in {
		out[i] = s
		out[i].Points = make([]Point, len(s.Points))
		for j, pt := range s.Points {
			out[i].Points[j] = Point{X: pt.X, Y: float64(pt.X) / pt.Y}
		}
	}
	return out
}

// The paper's sweep grids.
var (
	fig2Sizes   = sizes(4, 2<<20)
	fig3SizesMX = sizes(4, 16<<10)
	fig3SizesQs = sizes(4, 8<<10)
	fig4Sizes   = []int{256 << 10, 512 << 10, 1 << 20, 2 << 20}
)

// fig2a: raw ping-pong latency over MX/Myrinet.
func fig2a() (Figure, error) {
	series, err := sweep(
		[]mpiImpl{madMPI(core.DefaultOptions()), mpichLike(), openMPILike()},
		fig2Sizes,
		func(impl mpiImpl, size int) (float64, error) { return rawPingPong(impl, mxRails(), size) },
	)
	return Figure{
		ID: "2a", Title: "Raw point-to-point ping-pong — latency over MX/Myri-10G",
		XLabel: "message size (bytes)", YLabel: "latency (µs)", Series: series,
		Notes: []string{"paper: MAD-MPI tracks MPICH with a constant < 0.5 µs overhead"},
	}, err
}

// fig2b: raw ping-pong bandwidth over MX/Myrinet.
func fig2b() (Figure, error) {
	fig, err := fig2a()
	if err != nil {
		return Figure{}, err
	}
	return Figure{
		ID: "2b", Title: "Raw point-to-point ping-pong — bandwidth over MX/Myri-10G",
		XLabel: "message size (bytes)", YLabel: "bandwidth (MB/s)",
		Series: toBandwidth(fig.Series),
		Notes:  []string{"paper: MAD-MPI reaches 1155 MB/s over MYRI-10G"},
	}, nil
}

// fig2c: raw ping-pong latency over Elan/Quadrics.
func fig2c() (Figure, error) {
	series, err := sweep(
		[]mpiImpl{madMPI(core.DefaultOptions()), mpichLike()},
		fig2Sizes,
		func(impl mpiImpl, size int) (float64, error) { return rawPingPong(impl, qsRails(), size) },
	)
	return Figure{
		ID: "2c", Title: "Raw point-to-point ping-pong — latency over Elan/Quadrics",
		XLabel: "message size (bytes)", YLabel: "latency (µs)", Series: series,
	}, err
}

// fig2d: raw ping-pong bandwidth over Elan/Quadrics.
func fig2d() (Figure, error) {
	fig, err := fig2c()
	if err != nil {
		return Figure{}, err
	}
	return Figure{
		ID: "2d", Title: "Raw point-to-point ping-pong — bandwidth over Elan/Quadrics",
		XLabel: "message size (bytes)", YLabel: "bandwidth (MB/s)",
		Series: toBandwidth(fig.Series),
		Notes:  []string{"paper: MAD-MPI reaches 835 MB/s over QUADRICS"},
	}, nil
}

// tab51 reproduces the §5.1 in-text numbers: the constant software
// overhead of MAD-MPI vs MPICH at small sizes, and the peak bandwidths.
func tab51() (Figure, error) {
	fig := Figure{
		ID: "5.1", Title: "§5.1 summary — MAD-MPI overhead and peak bandwidth",
		XLabel: "-", YLabel: "-",
	}
	for _, net := range []struct {
		name  string
		rails []simnet.Profile
	}{
		{"MX/Myri-10G", mxRails()},
		{"Elan/Quadrics", qsRails()},
	} {
		var overhead float64
		smalls := []int{4, 8, 16, 32, 64}
		for _, size := range smalls {
			mad, err := rawPingPong(madMPI(core.DefaultOptions()), net.rails, size)
			if err != nil {
				return fig, err
			}
			mpich, err := rawPingPong(mpichLike(), net.rails, size)
			if err != nil {
				return fig, err
			}
			overhead += mad - mpich
		}
		overhead /= float64(len(smalls))
		peakAt := 2 << 20
		lat, err := rawPingPong(madMPI(core.DefaultOptions()), net.rails, peakAt)
		if err != nil {
			return fig, err
		}
		peak := float64(peakAt) / lat
		fig.Notes = append(fig.Notes,
			fmt.Sprintf("%s: MAD-MPI constant overhead vs MPICH = %.2f µs (paper: < 0.5 µs); peak bandwidth = %.0f MB/s",
				net.name, overhead, peak))
	}
	return fig, nil
}

// fig3a: 8-segment ping-pong latency over MX.
func fig3a() (Figure, error) { return fig3("3a", mxRails(), fig3SizesMX, 8, true) }

// fig3b: 16-segment ping-pong latency over MX.
func fig3b() (Figure, error) { return fig3("3b", mxRails(), fig3SizesMX, 16, true) }

// fig3c: 8-segment ping-pong latency over Quadrics.
func fig3c() (Figure, error) { return fig3("3c", qsRails(), fig3SizesQs, 8, false) }

// fig3d: 16-segment ping-pong latency over Quadrics.
func fig3d() (Figure, error) { return fig3("3d", qsRails(), fig3SizesQs, 16, false) }

func fig3(id string, rails []simnet.Profile, sizes []int, nsegs int, withOpenMPI bool) (Figure, error) {
	impls := []mpiImpl{madMPI(core.DefaultOptions()), mpichLike()}
	if withOpenMPI {
		impls = append(impls, openMPILike())
	}
	series, err := sweep(impls, sizes, func(impl mpiImpl, size int) (float64, error) {
		return multiSegPingPong(impl, rails, size, nsegs)
	})
	net := rails[0].Name
	return Figure{
		ID: id, Title: fmt.Sprintf("%d-segment ping-pong — latency over %s (one communicator per segment)", nsegs, net),
		XLabel: "per-segment size (bytes)", YLabel: "latency (µs)", Series: series,
		Notes: []string{"paper: MAD-MPI up to 70% faster over MX, up to 50% over Quadrics"},
	}, err
}

// fig4a: indexed datatype transfer time over MX.
func fig4a() (Figure, error) { return fig4("4a", mxRails(), true) }

// fig4b: indexed datatype transfer time over Quadrics.
func fig4b() (Figure, error) { return fig4("4b", qsRails(), false) }

func fig4(id string, rails []simnet.Profile, withOpenMPI bool) (Figure, error) {
	impls := []mpiImpl{madMPI(core.DefaultOptions()), mpichLike()}
	if withOpenMPI {
		impls = append(impls, openMPILike())
	}
	series, err := sweep(impls, fig4Sizes, func(impl mpiImpl, size int) (float64, error) {
		return datatypePingPong(impl, rails, size)
	})
	return Figure{
		ID: id, Title: fmt.Sprintf("Indexed datatype (64B + 256KB blocks) — transfer time over %s", rails[0].Name),
		XLabel: "total message size (bytes)", YLabel: "transfer time (µs)", Series: series,
		Notes: []string{"paper: ~70% gain vs MPICH, ~50% vs OpenMPI over MX; up to ~70% vs MPICH over Quadrics"},
	}, err
}

// ablationStrategies compares the engine's strategies on the Figure 3
// workload: the value of the optimization window itself.
func ablationStrategies() (Figure, error) {
	mk := func(name string) core.Options {
		o := core.DefaultOptions()
		o.Strategy = name
		return o
	}
	impls := []mpiImpl{
		madMPI(mk("aggreg")),
		madMPI(mk("default")),
		madMPI(mk("prio")),
		mpichLike(),
	}
	series, err := sweep(impls, sizes(4, 4<<10), func(impl mpiImpl, size int) (float64, error) {
		return multiSegPingPong(impl, mxRails(), size, 16)
	})
	return Figure{
		ID: "ablation-strategies", Title: "Ablation — strategy choice on the 16-segment workload (MX)",
		XLabel: "per-segment size (bytes)", YLabel: "latency (µs)", Series: series,
		Notes: []string{"default = FIFO without aggregation: the engine without its window"},
	}, err
}

// ablationMultirail measures heterogeneous multi-rail splitting: one
// large body over MX alone vs MX+Quadrics with the split strategy.
func ablationMultirail() (Figure, error) {
	split := core.DefaultOptions()
	split.Strategy = "split"
	sizes := sizes(64<<10, 16<<20)
	oneRail, err := sweep([]mpiImpl{madMPI(core.DefaultOptions())}, sizes,
		func(impl mpiImpl, size int) (float64, error) { return rawPingPong(impl, mxRails(), size) })
	if err != nil {
		return Figure{}, err
	}
	twoRails, err := sweep([]mpiImpl{madMPI(split)}, sizes,
		func(impl mpiImpl, size int) (float64, error) {
			return rawPingPong(impl, []simnet.Profile{simnet.MX10G(), simnet.QsNetII()}, size)
		})
	if err != nil {
		return Figure{}, err
	}
	oneRail[0].Label = "MadMPI (MX only)"
	twoRails[0].Label = "MadMPI[split] (MX + Quadrics)"
	return Figure{
		ID: "ablation-multirail", Title: "Ablation — multi-rail body splitting (paper §7 future work)",
		XLabel: "message size (bytes)", YLabel: "latency (µs)",
		Series: append(oneRail, twoRails...),
		Notes:  []string{"bandwidth-proportional heterogeneous splitting across 1250+900 MB/s rails"},
	}, nil
}

// ablationOverhead decomposes the §5.1 constant overhead into its two
// software components by zeroing them in turn.
func ablationOverhead() (Figure, error) {
	mk := func(submit, sched sim.Time) core.Options {
		o := core.DefaultOptions()
		o.SubmitOverhead = submit
		o.ScheduleOverhead = sched
		return o
	}
	full := core.DefaultOptions()
	rename := func(name string, o core.Options) mpiImpl {
		impl := madMPI(o)
		impl.Name = name
		return impl
	}
	impls := []mpiImpl{
		madMPI(full),
		rename("MadMPI[no-submit]", mk(0, full.ScheduleOverhead)),
		rename("MadMPI[no-sched]", mk(full.SubmitOverhead, 0)),
		rename("MadMPI[zero-overhead]", mk(0, 0)),
		mpichLike(),
	}
	series, err := sweep(impls, []int{4, 64, 1024}, func(impl mpiImpl, size int) (float64, error) {
		return rawPingPong(impl, mxRails(), size)
	})
	return Figure{
		ID: "ablation-overhead", Title: "Ablation — decomposing the MAD-MPI critical-path overhead (MX, small messages)",
		XLabel: "message size (bytes)", YLabel: "latency (µs)", Series: series,
		Notes: []string{"submit = collect-layer wrapping; sched = ready-list inspection per output packet (§5.1)"},
	}, err
}

// ablationRdvThreshold sweeps the aggregation cap / rendezvous switch.
func ablationRdvThreshold() (Figure, error) {
	// The threshold lives in the profile; sweep by building custom rails.
	fig := Figure{
		ID: "ablation-rdv", Title: "Ablation — rendezvous threshold / aggregation cap (MX, 16KB..256KB)",
		XLabel: "message size (bytes)", YLabel: "latency (µs)",
		Notes: []string{"low threshold: early zero-copy but more handshakes; high: longer eager copies"},
	}
	for _, thr := range []int{8 << 10, 32 << 10, 128 << 10} {
		prof := simnet.MX10G()
		prof.RdvThreshold = thr
		s := Series{Label: fmt.Sprintf("MadMPI[rdv=%dK]", thr>>10), Strategy: "aggreg", EngineOptions: summarizeOptions(core.DefaultOptions())}
		for _, size := range sizes(16<<10, 256<<10) {
			y, err := rawPingPong(madMPI(core.DefaultOptions()), []simnet.Profile{prof}, size)
			if err != nil {
				return fig, err
			}
			s.Points = append(s.Points, Point{X: size, Y: y})
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}

// ablationModes compares the three scheduling modes of §3.2 on the
// 16-segment workload: just-in-time (the default), anticipation
// (pre-built packets) and backlog flush.
func ablationModes() (Figure, error) {
	mk := func(name string, mod func(*core.Options)) mpiImpl {
		opts := core.DefaultOptions()
		mod(&opts)
		impl := madMPI(opts)
		impl.Name = name
		return impl
	}
	impls := []mpiImpl{
		mk("just-in-time", func(*core.Options) {}),
		mk("anticipate", func(o *core.Options) { o.Anticipate = true }),
		mk("flush-4", func(o *core.Options) { o.FlushBacklog = 4 }),
		mk("flush-8", func(o *core.Options) { o.FlushBacklog = 8 }),
	}
	series, err := sweep(impls, sizes(4, 4<<10), func(impl mpiImpl, size int) (float64, error) {
		return multiSegPingPong(impl, mxRails(), size, 16)
	})
	return Figure{
		ID: "ablation-modes", Title: "Ablation — §3.2 scheduling modes on the 16-segment workload (MX)",
		XLabel: "per-segment size (bytes)", YLabel: "latency (µs)", Series: series,
		Notes: []string{
			"just-in-time elects on NIC-idle; anticipation pre-builds one packet (less aggregation);",
			"flush-N elects whenever N wrappers queue (bounded trains, earlier first byte)",
		},
	}, err
}

// ablationComposite measures control-message latency inside a bulk
// stream: the multiplexing scenario of §2. The priority strategy lets the
// control fragment jump the accumulated bulk.
func ablationComposite() (Figure, error) {
	fig := Figure{
		ID: "ablation-composite", Title: "Ablation — control latency inside a bulk stream (MX, 16 x 16KB bulk)",
		XLabel: "bulk chunk size (bytes)", YLabel: "control latency (µs)",
		Notes: []string{"one small control message issued mid-stream; lower is better"},
	}
	prioOpts := core.DefaultOptions()
	prioOpts.Strategy = "prio"
	cases := []struct {
		label string
		impl  mpiImpl
		prio  bool
	}{
		{"MadMPI[prio]+priority-flag", madMPI(prioOpts), true},
		{"MadMPI[aggreg]", madMPI(core.DefaultOptions()), false},
		{"MPICH", mpichLike(), false},
	}
	for _, c := range cases {
		s := Series{Label: c.label, Strategy: c.impl.Strategy, EngineOptions: c.impl.EngineOptions}
		for _, bulk := range []int{4 << 10, 8 << 10, 16 << 10} {
			lat, err := compositeControlLatency(c.impl, mxRails(), bulk, 16, c.prio)
			if err != nil {
				return fig, err
			}
			s.Points = append(s.Points, Point{X: bulk, Y: lat})
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}

// ablationSampling shows the functional-bandwidth sampler at work: a
// two-rail transfer with the MX rail congested to 30% of nominal. Cold
// engines plan with nominal figures and overload the congested rail;
// warmed engines rebalance from samples.
func ablationSampling() (Figure, error) {
	fig := Figure{
		ID: "ablation-sampling", Title: "Ablation — bandwidth sampling under congestion (MX at 30%, split strategy)",
		XLabel: "message size (bytes)", YLabel: "transfer time (µs)",
		Notes: []string{"cold = nominal-bandwidth plan; warmed = plan from sampled functional bandwidth"},
	}
	for _, c := range []struct {
		label  string
		warmup int
	}{
		{"cold (nominal plan)", 0},
		{"warmed (sampled plan)", 4},
	} {
		s := Series{Label: c.label, Strategy: "split"}
		for _, size := range []int{2 << 20, 4 << 20, 8 << 20} {
			t, err := congestedTransfer(size, 0.3, c.warmup)
			if err != nil {
				return fig, err
			}
			s.Points = append(s.Points, Point{X: size, Y: t})
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}

// figIncast measures the incast overload scenario: N senders flood one
// slow receiver with a burst of eager messages. Without flow control the
// receiver's unexpected queue grows with the burst; with a credit budget
// it is bounded by the budget while every payload still arrives intact.
func figIncast() (Figure, error) {
	fig := Figure{
		ID: "incast", Title: "Incast overload — receiver queue high-water mark (MX, 32 x 1KB burst per sender, slow receiver)",
		XLabel: "senders", YLabel: "peak unexpected queue (wrappers)",
		Notes: []string{"per-gate high-water mark; with credits=N the bound is the budget, without it the burst size"},
	}
	for _, c := range []struct {
		label   string
		credits int
	}{
		{"no flow control", 0},
		{"credits=16", 16},
		{"credits=8", 8},
	} {
		opts := core.DefaultOptions()
		opts.Credits = c.credits
		opts.MaxGrants = 4
		s := Series{Label: c.label, Strategy: "aggreg", EngineOptions: summarizeOptions(opts)}
		var last *scenario.Report
		for _, n := range []int{2, 4, 8} {
			rep, err := runPhase(n+1, opts, 0, 0, scenario.PhaseSpec{
				Kind: "incast", Target: 0, Msgs: 32, Size: 1 << 10, Count: 1, DrainGap: 2 * sim.Microsecond,
			})
			if err != nil {
				return fig, err
			}
			s.Points = append(s.Points, Point{X: n, Y: float64(rep.Stats[0].PeakUnexpected)})
			last = rep
		}
		fig.Notes = append(fig.Notes, fmt.Sprintf(
			"%s: 8-to-1 completion %.0f µs, peak held %d, protocol errors %d",
			s.Label, last.Completion.Microseconds(), last.Stats[0].PeakHeld, last.Stats[0].ProtocolErrors))
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}

// FigureInfo describes one runnable figure for discovery (-list).
type FigureInfo struct {
	ID   string
	Desc string
}

// figureList is the registry of everything the harness can regenerate,
// in curated order: paper figures first, then the ablations and the
// scale workloads.
var figureList = []struct {
	id   string
	desc string
	fn   func() (Figure, error)
}{
	{"2a", "raw ping-pong latency over MX/Myri-10G (vs MPICH, OpenMPI)", fig2a},
	{"2b", "raw ping-pong bandwidth over MX/Myri-10G", fig2b},
	{"2c", "raw ping-pong latency over Elan/Quadrics", fig2c},
	{"2d", "raw ping-pong bandwidth over Elan/Quadrics", fig2d},
	{"5.1", "§5.1 summary: constant software overhead and peak bandwidths", tab51},
	{"3a", "8-segment ping-pong over MX, one communicator per segment", fig3a},
	{"3b", "16-segment ping-pong over MX", fig3b},
	{"3c", "8-segment ping-pong over Quadrics", fig3c},
	{"3d", "16-segment ping-pong over Quadrics", fig3d},
	{"4a", "indexed-datatype (64B+256KB blocks) transfer time over MX", fig4a},
	{"4b", "indexed-datatype transfer time over Quadrics", fig4b},
	{"incast", "N-to-1 eager overload: receiver queue bound under credit flow control", figIncast},
	{"allreduce", "collective schedule engine: tree/pipelined-ring allreduce vs the seed blocking tree, size × nodes", figAllreduce},
	{"replay-ab", "trace-driven replay A/B: strategies on the recorded composite workload, identical submission timing", figReplayAB},
	{"ablation-strategies", "strategy choice (aggreg/default/prio) on the 16-segment workload", ablationStrategies},
	{"ablation-multirail", "heterogeneous multi-rail body splitting (MX + Quadrics)", ablationMultirail},
	{"ablation-overhead", "decomposing the critical-path software overhead (submit vs sched)", ablationOverhead},
	{"ablation-rdv", "rendezvous threshold / aggregation cap sweep", ablationRdvThreshold},
	{"ablation-modes", "§3.2 scheduling modes: just-in-time vs anticipation vs backlog flush", ablationModes},
	{"ablation-composite", "control-message latency inside a bulk stream (priority strategy)", ablationComposite},
	{"ablation-sampling", "bandwidth sampling under congestion (cold vs warmed split plan)", ablationSampling},
	{"scale-nodes", "collective completion vs emulated job size, 8..1024 nodes, lossless vs 1% drop", figScaleNodes},
	{"drop-resilience", "8-node 16-segment ring exchange completion vs packet-drop probability per strategy", figDropResilience},
	{"tenant-isolation", "multi-tenant job queue: victim pingpong latency under a competing tenant's incast burst", figTenantIsolation},
}

// FigureIDs lists the registry keys in stable (sorted) order.
func FigureIDs() []string {
	ids := make([]string, 0, len(figureList))
	for _, e := range figureList {
		ids = append(ids, e.id)
	}
	sort.Strings(ids)
	return ids
}

// Figures lists every runnable figure with its one-line description, in
// curated registry order (paper figures, then workloads and ablations).
func Figures() []FigureInfo {
	out := make([]FigureInfo, 0, len(figureList))
	for _, e := range figureList {
		out = append(out, FigureInfo{ID: e.id, Desc: e.desc})
	}
	return out
}

// Run regenerates one figure by id.
func Run(id string) (Figure, error) {
	for _, e := range figureList {
		if e.id == id {
			return e.fn()
		}
	}
	return Figure{}, fmt.Errorf("bench: unknown figure %q (have %v)", id, FigureIDs())
}
