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

// line is one series of a measured figure: its stamped Series and the
// measurement that yields its point at each x of the figure's grid, the
// worlds it builds counting their work into wk (nil: none do).
type line struct {
	Series
	measure func(x int, wk *sim.Work) (float64, error)
}

// sweep turns implementations into lines, one each, stamped with the
// implementation's engine configuration and measured by measure.
func sweep(impls []mpiImpl, measure func(impl mpiImpl, x int, wk *sim.Work) (float64, error)) []line {
	return each(impls, func(impl mpiImpl) line {
		return line{
			Series{Label: impl.Name, Strategy: impl.Strategy, EngineOptions: impl.EngineOptions},
			func(x int, wk *sim.Work) (float64, error) { return measure(impl, x, wk) },
		}
	})
}

// each builds one line per parameter value.
func each[P any](params []P, mk func(P) line) []line {
	lines := make([]line, len(params))
	for i, p := range params {
		lines[i] = mk(p)
	}
	return lines
}

// strategy is the paper's engine configuration under another strategy.
func strategy(name string) core.Options {
	o := core.DefaultOptions()
	o.Strategy = name
	return o
}

// variant is MAD-MPI labelled label, its paper configuration changed by
// mod.
func variant(label string, mod func(*core.Options)) mpiImpl {
	o := core.DefaultOptions()
	mod(&o)
	impl := madMPI(o)
	impl.Name = label
	return impl
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

// tab51 reproduces the §5.1 in-text numbers: the constant software
// overhead of MAD-MPI vs MPICH at small sizes, and the peak bandwidths.
func tab51(wk *sim.Work) (Figure, error) {
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
			mad, err := rawPingPong(wk, madMPI(core.DefaultOptions()), net.rails, size)
			if err != nil {
				return fig, err
			}
			mpich, err := rawPingPong(wk, mpichLike(), net.rails, size)
			if err != nil {
				return fig, err
			}
			overhead += mad - mpich
		}
		overhead /= float64(len(smalls))
		peakAt := 2 << 20
		lat, err := rawPingPong(wk, madMPI(core.DefaultOptions()), net.rails, peakAt)
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

// figIncast measures the incast overload scenario: N senders flood one
// slow receiver with a burst of eager messages. Without flow control the
// receiver's unexpected queue grows with the burst; with a credit budget
// it is bounded by the budget while every payload still arrives intact.
func figIncast(wk *sim.Work) (Figure, error) {
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
			rep, err := runPhase(wk, n+1, opts, 0, 0, scenario.PhaseSpec{
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

// figure is one row of the registry. A measured row is a header, an x
// grid and its lines, which run measures; a derived row (2b, 2d) converts
// the series of the latency row it names to bandwidth. The figures whose
// notes or points come from runs several series share keep a builder.
type figure struct {
	id, desc string // the registry key and its -list line
	head     Figure // title, axis labels and static notes
	xs       []int
	lines    []line
	from     string
	build    func(wk *sim.Work) (Figure, error)
}

// run regenerates the row's figure; a measured row measures every line at
// every x, line by line. Every world it builds counts its work into wk
// (nil: none does).
func (f figure) run(wk *sim.Work) (Figure, error) {
	if f.build != nil {
		return f.build(wk)
	}
	fig := f.head
	fig.ID = f.id
	if f.from != "" {
		src, err := runFigure(f.from, wk)
		fig.Series = toBandwidth(src.Series)
		return fig, err
	}
	for _, l := range f.lines {
		s := l.Series
		for _, x := range f.xs {
			y, err := l.measure(x, wk)
			if err != nil {
				return fig, err
			}
			s.Points = append(s.Points, Point{X: x, Y: y})
		}
		fig.Series = append(fig.Series, s)
	}
	return fig, nil
}

// What the rows share: axis labels, and MAD-MPI in the paper's
// configuration against MPICH, and against OpenMPI too where the paper
// has it (MX only).
const (
	sizeAxis    = "message size (bytes)"
	segAxis     = "per-segment size (bytes)"
	latencyAxis = "latency (µs)"
)

var (
	madVsMPICH = []mpiImpl{madMPI(core.DefaultOptions()), mpichLike()}
	madVsAll   = []mpiImpl{madMPI(core.DefaultOptions()), mpichLike(), openMPILike()}
	fig3Notes  = []string{"paper: MAD-MPI up to 70% faster over MX, up to 50% over Quadrics"}
	fig4Notes  = []string{"paper: ~70% gain vs MPICH, ~50% vs OpenMPI over MX; up to ~70% vs MPICH over Quadrics"}
)

// figureList is the registry of everything the harness can regenerate,
// in curated order: paper figures first, then the ablations and the
// scale workloads.
var figureList = []figure{
	{
		id: "2a", desc: "raw ping-pong latency over MX/Myri-10G (vs MPICH, OpenMPI)",
		head: Figure{Title: "Raw point-to-point ping-pong — latency over MX/Myri-10G", XLabel: sizeAxis, YLabel: latencyAxis,
			Notes: []string{"paper: MAD-MPI tracks MPICH with a constant < 0.5 µs overhead"}},
		xs:    fig2Sizes,
		lines: sweep(madVsAll, func(im mpiImpl, x int, wk *sim.Work) (float64, error) { return rawPingPong(wk, im, mxRails(), x) }),
	},
	{
		id: "2b", desc: "raw ping-pong bandwidth over MX/Myri-10G", from: "2a",
		head: Figure{Title: "Raw point-to-point ping-pong — bandwidth over MX/Myri-10G", XLabel: sizeAxis, YLabel: "bandwidth (MB/s)",
			Notes: []string{"paper: MAD-MPI reaches 1155 MB/s over MYRI-10G"}},
	},
	{
		id: "2c", desc: "raw ping-pong latency over Elan/Quadrics",
		head:  Figure{Title: "Raw point-to-point ping-pong — latency over Elan/Quadrics", XLabel: sizeAxis, YLabel: latencyAxis},
		xs:    fig2Sizes,
		lines: sweep(madVsMPICH, func(im mpiImpl, x int, wk *sim.Work) (float64, error) { return rawPingPong(wk, im, qsRails(), x) }),
	},
	{
		id: "2d", desc: "raw ping-pong bandwidth over Elan/Quadrics", from: "2c",
		head: Figure{Title: "Raw point-to-point ping-pong — bandwidth over Elan/Quadrics", XLabel: sizeAxis, YLabel: "bandwidth (MB/s)",
			Notes: []string{"paper: MAD-MPI reaches 835 MB/s over QUADRICS"}},
	},
	{id: "5.1", desc: "§5.1 summary: constant software overhead and peak bandwidths", build: tab51},
	{
		id: "3a", desc: "8-segment ping-pong over MX, one communicator per segment",
		head: Figure{Title: "8-segment ping-pong — latency over mx10g (one communicator per segment)", XLabel: segAxis, YLabel: latencyAxis, Notes: fig3Notes},
		xs:   fig3SizesMX,
		lines: sweep(madVsAll, func(im mpiImpl, x int, wk *sim.Work) (float64, error) {
			return multiSegPingPong(wk, im, mxRails(), x, 8)
		}),
	},
	{
		id: "3b", desc: "16-segment ping-pong over MX",
		head: Figure{Title: "16-segment ping-pong — latency over mx10g (one communicator per segment)", XLabel: segAxis, YLabel: latencyAxis, Notes: fig3Notes},
		xs:   fig3SizesMX,
		lines: sweep(madVsAll, func(im mpiImpl, x int, wk *sim.Work) (float64, error) {
			return multiSegPingPong(wk, im, mxRails(), x, 16)
		}),
	},
	{
		id: "3c", desc: "8-segment ping-pong over Quadrics",
		head: Figure{Title: "8-segment ping-pong — latency over qsnet2 (one communicator per segment)", XLabel: segAxis, YLabel: latencyAxis, Notes: fig3Notes},
		xs:   fig3SizesQs,
		lines: sweep(madVsMPICH, func(im mpiImpl, x int, wk *sim.Work) (float64, error) {
			return multiSegPingPong(wk, im, qsRails(), x, 8)
		}),
	},
	{
		id: "3d", desc: "16-segment ping-pong over Quadrics",
		head: Figure{Title: "16-segment ping-pong — latency over qsnet2 (one communicator per segment)", XLabel: segAxis, YLabel: latencyAxis, Notes: fig3Notes},
		xs:   fig3SizesQs,
		lines: sweep(madVsMPICH, func(im mpiImpl, x int, wk *sim.Work) (float64, error) {
			return multiSegPingPong(wk, im, qsRails(), x, 16)
		}),
	},
	{
		id: "4a", desc: "indexed-datatype (64B+256KB blocks) transfer time over MX",
		head: Figure{Title: "Indexed datatype (64B + 256KB blocks) — transfer time over mx10g",
			XLabel: "total message size (bytes)", YLabel: "transfer time (µs)", Notes: fig4Notes},
		xs:    fig4Sizes,
		lines: sweep(madVsAll, func(im mpiImpl, x int, wk *sim.Work) (float64, error) { return datatypePingPong(wk, im, mxRails(), x) }),
	},
	{
		id: "4b", desc: "indexed-datatype transfer time over Quadrics",
		head: Figure{Title: "Indexed datatype (64B + 256KB blocks) — transfer time over qsnet2",
			XLabel: "total message size (bytes)", YLabel: "transfer time (µs)", Notes: fig4Notes},
		xs:    fig4Sizes,
		lines: sweep(madVsMPICH, func(im mpiImpl, x int, wk *sim.Work) (float64, error) { return datatypePingPong(wk, im, qsRails(), x) }),
	},
	{id: "incast", desc: "N-to-1 eager overload: receiver queue bound under credit flow control", build: figIncast},
	{id: "allreduce", desc: "collective schedule engine: tree/pipelined-ring allreduce vs the seed blocking tree, size × nodes", build: figAllreduce},
	{id: "replay-ab", desc: "trace-driven replay A/B: strategies on the recorded composite workload, identical submission timing", build: figReplayAB},
	{
		// The value of the optimization window itself, on the Figure 3 workload.
		id: "ablation-strategies", desc: "strategy choice (aggreg/default/prio) on the 16-segment workload",
		head: Figure{Title: "Ablation — strategy choice on the 16-segment workload (MX)", XLabel: segAxis, YLabel: latencyAxis,
			Notes: []string{"default = FIFO without aggregation: the engine without its window"}},
		xs: sizes(4, 4<<10),
		lines: sweep([]mpiImpl{madMPI(core.DefaultOptions()), madMPI(strategy("default")), madMPI(strategy("prio")), mpichLike()},
			func(im mpiImpl, x int, wk *sim.Work) (float64, error) {
				return multiSegPingPong(wk, im, mxRails(), x, 16)
			}),
	},
	{
		// One large body over MX alone vs MX+Quadrics under the split strategy.
		id: "ablation-multirail", desc: "heterogeneous multi-rail body splitting (MX + Quadrics)",
		head: Figure{Title: "Ablation — multi-rail body splitting (paper §7 future work)", XLabel: sizeAxis, YLabel: latencyAxis,
			Notes: []string{"bandwidth-proportional heterogeneous splitting across 1250+900 MB/s rails"}},
		xs: sizes(64<<10, 16<<20),
		lines: append(
			sweep([]mpiImpl{variant("MadMPI (MX only)", func(*core.Options) {})},
				func(im mpiImpl, x int, wk *sim.Work) (float64, error) { return rawPingPong(wk, im, mxRails(), x) }),
			sweep([]mpiImpl{variant("MadMPI[split] (MX + Quadrics)", func(o *core.Options) { o.Strategy = "split" })},
				func(im mpiImpl, x int, wk *sim.Work) (float64, error) {
					return rawPingPong(wk, im, []simnet.Profile{simnet.MX10G(), simnet.QsNetII()}, x)
				})...),
	},
	{
		// The §5.1 constant overhead, its two software components zeroed in turn.
		id: "ablation-overhead", desc: "decomposing the critical-path software overhead (submit vs sched)",
		head: Figure{Title: "Ablation — decomposing the MAD-MPI critical-path overhead (MX, small messages)", XLabel: sizeAxis, YLabel: latencyAxis,
			Notes: []string{"submit = collect-layer wrapping; sched = ready-list inspection per output packet (§5.1)"}},
		xs: []int{4, 64, 1024},
		lines: sweep([]mpiImpl{
			madMPI(core.DefaultOptions()),
			variant("MadMPI[no-submit]", func(o *core.Options) { o.SubmitOverhead = 0 }),
			variant("MadMPI[no-sched]", func(o *core.Options) { o.ScheduleOverhead = 0 }),
			variant("MadMPI[zero-overhead]", func(o *core.Options) { o.SubmitOverhead, o.ScheduleOverhead = 0, 0 }),
			mpichLike(),
		}, func(im mpiImpl, x int, wk *sim.Work) (float64, error) { return rawPingPong(wk, im, mxRails(), x) }),
	},
	{
		// The threshold lives in the profile: each line has its own MX rail.
		id: "ablation-rdv", desc: "rendezvous threshold / aggregation cap sweep",
		head: Figure{Title: "Ablation — rendezvous threshold / aggregation cap (MX, 16KB..256KB)", XLabel: sizeAxis, YLabel: latencyAxis,
			Notes: []string{"low threshold: early zero-copy but more handshakes; high: longer eager copies"}},
		xs: sizes(16<<10, 256<<10),
		lines: each([]int{8 << 10, 32 << 10, 128 << 10}, func(thr int) line {
			prof := simnet.MX10G()
			prof.RdvThreshold = thr
			impl := madMPI(core.DefaultOptions())
			return line{
				Series{Label: fmt.Sprintf("MadMPI[rdv=%dK]", thr>>10), Strategy: impl.Strategy, EngineOptions: impl.EngineOptions},
				func(x int, wk *sim.Work) (float64, error) { return rawPingPong(wk, impl, []simnet.Profile{prof}, x) },
			}
		}),
	},
	{
		// The three scheduling modes of §3.2 on the 16-segment workload.
		id: "ablation-modes", desc: "§3.2 scheduling modes: just-in-time vs anticipation vs backlog flush",
		head: Figure{Title: "Ablation — §3.2 scheduling modes on the 16-segment workload (MX)", XLabel: segAxis, YLabel: latencyAxis,
			Notes: []string{
				"just-in-time elects on NIC-idle; anticipation pre-builds one packet (less aggregation);",
				"flush-N elects whenever N wrappers queue (bounded trains, earlier first byte)",
			}},
		xs: sizes(4, 4<<10),
		lines: sweep([]mpiImpl{
			variant("just-in-time", func(*core.Options) {}),
			variant("anticipate", func(o *core.Options) { o.Anticipate = true }),
			variant("flush-4", func(o *core.Options) { o.FlushBacklog = 4 }),
			variant("flush-8", func(o *core.Options) { o.FlushBacklog = 8 }),
		}, func(im mpiImpl, x int, wk *sim.Work) (float64, error) {
			return multiSegPingPong(wk, im, mxRails(), x, 16)
		}),
	},
	{
		// The multiplexing scenario of §2: under the prio strategy the
		// control message carries the priority flag and jumps the bulk.
		id: "ablation-composite", desc: "control-message latency inside a bulk stream (priority strategy)",
		head: Figure{Title: "Ablation — control latency inside a bulk stream (MX, 16 x 16KB bulk)",
			XLabel: "bulk chunk size (bytes)", YLabel: "control latency (µs)",
			Notes: []string{"one small control message issued mid-stream; lower is better"}},
		xs: []int{4 << 10, 8 << 10, 16 << 10},
		lines: sweep([]mpiImpl{
			variant("MadMPI[prio]+priority-flag", func(o *core.Options) { o.Strategy = "prio" }),
			variant("MadMPI[aggreg]", func(*core.Options) {}),
			mpichLike(),
		}, func(im mpiImpl, x int, wk *sim.Work) (float64, error) {
			return compositeControlLatency(wk, im, mxRails(), x, 16, im.Strategy == "prio")
		}),
	},
	{
		// Two rails, MX congested to 30% of nominal: a cold engine plans
		// with nominal figures and overloads it, a warmed one rebalances
		// from samples.
		id: "ablation-sampling", desc: "bandwidth sampling under congestion (cold vs warmed split plan)",
		head: Figure{Title: "Ablation — bandwidth sampling under congestion (MX at 30%, split strategy)",
			XLabel: sizeAxis, YLabel: "transfer time (µs)",
			Notes: []string{"cold = nominal-bandwidth plan; warmed = plan from sampled functional bandwidth"}},
		xs: []int{2 << 20, 4 << 20, 8 << 20},
		lines: []line{
			{Series{Label: "cold (nominal plan)", Strategy: "split"}, func(x int, wk *sim.Work) (float64, error) { return congestedTransfer(wk, x, 0.3, 0) }},
			{Series{Label: "warmed (sampled plan)", Strategy: "split"}, func(x int, wk *sim.Work) (float64, error) { return congestedTransfer(wk, x, 0.3, 4) }},
		},
	},
	{id: "scale-nodes", desc: "collective completion vs emulated job size, 8..1024 nodes, lossless vs 1% drop", build: figScaleNodes},
	{
		// How completion degrades as the fabric gets worse, and whether the
		// window still pays off under loss: aggregation packs segments
		// into fewer packets, and fewer packets means fewer drops to repair.
		id: "drop-resilience", desc: "8-node 16-segment ring exchange completion vs packet-drop probability per strategy",
		head: Figure{Title: "Drop resilience — 8-node 16-segment ring exchange (256B/segment) completion vs packet loss (MX)",
			XLabel: "drop (%)", YLabel: "completion (µs)",
			Notes: []string{"reliability on; every segment verified intact at every point", fmt.Sprintf("fault seed %d", faultSeed)}},
		xs: []int{0, 5, 10, 20, 30},
		lines: each([]string{"aggreg", "default", "prio"}, func(strat string) line {
			opts := strategy(strat)
			opts.Reliability = true
			return line{
				Series{Label: "MadMPI[" + strat + "]", Strategy: strat, EngineOptions: summarizeOptions(opts), Seed: faultSeed, Faults: "drop swept 0..30%"},
				func(pct int, wk *sim.Work) (float64, error) {
					rep, err := runPhase(wk, 8, opts, float64(pct)/100, faultSeed, scenario.PhaseSpec{Kind: "ring", Msgs: 16, Size: 256, Count: 1})
					if err != nil {
						return 0, err
					}
					return rep.Completion.Microseconds(), nil
				},
			}
		}),
	},
	{id: "tenant-isolation", desc: "multi-tenant job queue: victim pingpong latency under a competing tenant's incast burst", build: figTenantIsolation},
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
func Run(id string) (Figure, error) { return runFigure(id, nil) }

// runFigure regenerates figure id, every world it builds counting its
// work into wk (nil: none does).
func runFigure(id string, wk *sim.Work) (Figure, error) {
	for _, e := range figureList {
		if e.id == id {
			return e.run(wk)
		}
	}
	return Figure{}, fmt.Errorf("bench: unknown figure %q (have %v)", id, FigureIDs())
}
