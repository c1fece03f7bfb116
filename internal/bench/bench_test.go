package bench

import (
	"strings"
	"testing"

	"nmad/internal/core"
	"nmad/internal/scenario"
	"nmad/internal/sim"
	"nmad/internal/simnet"
)

// These tests assert the qualitative claims of the paper's evaluation —
// who wins, by roughly what factor, where the curves converge — against
// the regenerated figures. Exact values live in testdata/figures.

func TestFig2OverheadUnderHalfMicrosecond(t *testing.T) {
	// §5.1: "MAD-MPI introduces a constant overhead of less than 0.5 µs".
	for _, rails := range [][]simnet.Profile{mxRails(), qsRails()} {
		for _, size := range []int{4, 64, 1024} {
			mad, err := rawPingPong(nil, madMPI(core.DefaultOptions()), rails, size)
			if err != nil {
				t.Fatal(err)
			}
			mpich, err := rawPingPong(nil, mpichLike(), rails, size)
			if err != nil {
				t.Fatal(err)
			}
			over := mad - mpich
			if over < 0 {
				t.Errorf("%s %dB: MAD-MPI faster than MPICH on the raw path (%.2f vs %.2f µs); the optimizer is not free",
					rails[0].Name, size, mad, mpich)
			}
			if over > 0.5 {
				t.Errorf("%s %dB: MAD-MPI overhead %.2f µs, paper requires < 0.5 µs", rails[0].Name, size, over)
			}
		}
	}
}

func TestFig2BandwidthConverges(t *testing.T) {
	// At 2MB the curves must converge: the optimizer costs nothing when
	// there is nothing to optimize.
	size := 2 << 20
	mad, err := rawPingPong(nil, madMPI(core.DefaultOptions()), mxRails(), size)
	if err != nil {
		t.Fatal(err)
	}
	mpich, err := rawPingPong(nil, mpichLike(), mxRails(), size)
	if err != nil {
		t.Fatal(err)
	}
	if ratio := mad / mpich; ratio > 1.01 {
		t.Errorf("2MB latency ratio %.3f, want < 1%% apart", ratio)
	}
	bw := float64(size) / mad
	if bw < 1000 || bw > 1300 {
		t.Errorf("MX peak bandwidth %.0f MB/s, want in the Myri-10G ballpark (paper: 1155)", bw)
	}
	qs, err := rawPingPong(nil, madMPI(core.DefaultOptions()), qsRails(), size)
	if err != nil {
		t.Fatal(err)
	}
	if bw := float64(size) / qs; bw < 750 || bw > 950 {
		t.Errorf("Quadrics peak bandwidth %.0f MB/s, want in the QM500 ballpark (paper: 835)", bw)
	}
}

func TestFig2LatencyMonotonicInSize(t *testing.T) {
	prev := 0.0
	for _, size := range fig2Sizes {
		lat, err := rawPingPong(nil, madMPI(core.DefaultOptions()), mxRails(), size)
		if err != nil {
			t.Fatal(err)
		}
		if lat < prev {
			t.Errorf("latency decreased from %.2f to %.2f µs at %d bytes", prev, lat, size)
		}
		prev = lat
	}
}

func TestFig3SmallSegmentsBigWin(t *testing.T) {
	// §5.2: "MAD-MPI is up to 70% faster than other implementations of
	// MPI over MX-10G, and up to 50% faster than MPICH over QUADRICS".
	check := func(rails []simnet.Profile, nsegs int, wantMin, wantMax float64) {
		mad, err := multiSegPingPong(nil, madMPI(core.DefaultOptions()), rails, 4, nsegs)
		if err != nil {
			t.Fatal(err)
		}
		mpich, err := multiSegPingPong(nil, mpichLike(), rails, 4, nsegs)
		if err != nil {
			t.Fatal(err)
		}
		gain := 1 - mad/mpich
		if gain < wantMin || gain > wantMax {
			t.Errorf("%s %d-segment gain %.0f%%, want in [%.0f%%, %.0f%%]",
				rails[0].Name, nsegs, gain*100, wantMin*100, wantMax*100)
		}
	}
	check(mxRails(), 16, 0.50, 0.75) // paper: up to 70%
	check(mxRails(), 8, 0.35, 0.70)
	check(qsRails(), 16, 0.35, 0.65) // paper: up to 50%
	check(qsRails(), 8, 0.25, 0.60)
}

func TestFig3Converges(t *testing.T) {
	// Once the aggregated size reaches the rendezvous threshold the
	// curves must (nearly) meet.
	mad, err := multiSegPingPong(nil, madMPI(core.DefaultOptions()), mxRails(), 16<<10, 16)
	if err != nil {
		t.Fatal(err)
	}
	mpich, err := multiSegPingPong(nil, mpichLike(), mxRails(), 16<<10, 16)
	if err != nil {
		t.Fatal(err)
	}
	if ratio := mad / mpich; ratio < 0.9 || ratio > 1.1 {
		t.Errorf("16KB-segment ratio %.2f, want convergence within 10%%", ratio)
	}
}

func TestFig4DatatypeGains(t *testing.T) {
	// §5.3: "a gain of about 70% in comparison with MPICH and about 50%
	// with OpenMPI over MX and until about 70% versus MPICH over
	// QUADRICS".
	size := 2 << 20
	mad, err := datatypePingPong(nil, madMPI(core.DefaultOptions()), mxRails(), size)
	if err != nil {
		t.Fatal(err)
	}
	mpich, err := datatypePingPong(nil, mpichLike(), mxRails(), size)
	if err != nil {
		t.Fatal(err)
	}
	ompi, err := datatypePingPong(nil, openMPILike(), mxRails(), size)
	if err != nil {
		t.Fatal(err)
	}
	if gain := 1 - mad/mpich; gain < 0.55 || gain > 0.80 {
		t.Errorf("MX gain vs MPICH = %.0f%%, paper says about 70%%", gain*100)
	}
	if gain := 1 - mad/ompi; gain < 0.40 || gain > 0.65 {
		t.Errorf("MX gain vs OpenMPI = %.0f%%, paper says about 50%%", gain*100)
	}
	if ompi >= mpich {
		t.Error("OpenMPI must beat MPICH on datatypes (pipelined pack), as in the paper's Figure 4")
	}
	qmad, err := datatypePingPong(nil, madMPI(core.DefaultOptions()), qsRails(), size)
	if err != nil {
		t.Fatal(err)
	}
	qmpich, err := datatypePingPong(nil, mpichLike(), qsRails(), size)
	if err != nil {
		t.Fatal(err)
	}
	if gain := 1 - qmad/qmpich; gain < 0.50 || gain > 0.80 {
		t.Errorf("Quadrics gain vs MPICH = %.0f%%, paper says until about 70%%", gain*100)
	}
}

func TestPaperDatatypeSegs(t *testing.T) {
	segs := paperDatatypeSegs(2 * (64 + 256<<10))
	if len(segs) != 4 {
		t.Fatalf("2 pairs should flatten to 4 blocks, got %d", len(segs))
	}
	if segs[0].Len != 64 || segs[1].Len != 256<<10 {
		t.Errorf("block sizes %d/%d, want 64/262144", segs[0].Len, segs[1].Len)
	}
	total := 0
	last := -1
	for _, s := range segs {
		if s.Off <= last {
			t.Errorf("blocks must be separated by gaps (non-contiguous layout); offset %d after %d", s.Off, last)
		}
		last = s.Off + s.Len
		total += s.Len
	}
	if total != 2*(64+256<<10) {
		t.Errorf("segments carry %d data bytes", total)
	}
	if datatypeExtent(total) <= total {
		t.Error("extent must exceed the data size (the gaps)")
	}
	// Non-multiple totals still carry exactly the requested data.
	for _, odd := range []int{100, 64 + 256<<10 + 1000, 3 << 20} {
		segs := paperDatatypeSegs(odd)
		total := 0
		for _, s := range segs {
			total += s.Len
		}
		if total != odd {
			t.Errorf("PaperDatatypeSegs(%d) carries %d bytes", odd, total)
		}
	}
}

func TestRunRegistry(t *testing.T) {
	seen := map[string]bool{}
	for _, info := range Figures() {
		if info.Desc == "" {
			t.Errorf("figure %s has no description", info.ID)
		}
		if seen[info.ID] {
			t.Errorf("figure %s registered twice", info.ID)
		}
		seen[info.ID] = true
	}
	if _, err := Run("nope"); err == nil {
		t.Error("unknown figure id should error")
	}
}

func TestFormatTable(t *testing.T) {
	fig := Figure{
		ID: "t", Title: "test", XLabel: "size", YLabel: "µs",
		Series: []Series{
			{Label: "A", Points: []Point{{4, 1.5}, {1024, 2.5}}},
			{Label: "B", Points: []Point{{4, 3.25}}},
		},
		Notes: []string{"a note"},
	}
	tbl := FormatTable(fig)
	for _, want := range []string{"Figure t", "A", "B", "1.50", "3.25", "1K", "a note"} {
		if !strings.Contains(tbl, want) {
			t.Errorf("table missing %q:\n%s", want, tbl)
		}
	}
}

func TestSpeedupHelper(t *testing.T) {
	fig := Figure{Series: []Series{
		{Label: "fast", Points: []Point{{8, 2}}},
		{Label: "slow", Points: []Point{{8, 6}}},
	}}
	s, err := speedup(fig, "fast", "slow", 8)
	if err != nil || s != 3 {
		t.Errorf("Speedup = %v, %v; want 3", s, err)
	}
	if _, err := speedup(fig, "fast", "slow", 9); err == nil {
		t.Error("missing x should error")
	}
}

func TestAblationStrategiesOrdering(t *testing.T) {
	// The window (aggreg) must beat the windowless engine (default), and
	// the windowless engine should roughly match the baselines.
	agg := core.DefaultOptions()
	def := core.DefaultOptions()
	def.Strategy = "default"
	aggLat, err := multiSegPingPong(nil, madMPI(agg), mxRails(), 64, 16)
	if err != nil {
		t.Fatal(err)
	}
	defLat, err := multiSegPingPong(nil, madMPI(def), mxRails(), 64, 16)
	if err != nil {
		t.Fatal(err)
	}
	if aggLat >= defLat {
		t.Errorf("aggreg %.2f µs vs default %.2f µs: the window is the whole point", aggLat, defLat)
	}
	mpichLat, err := multiSegPingPong(nil, mpichLike(), mxRails(), 64, 16)
	if err != nil {
		t.Fatal(err)
	}
	if defLat < mpichLat*0.8 || defLat > mpichLat*1.4 {
		t.Errorf("windowless engine %.2f µs vs MPICH %.2f µs: should be in the same league", defLat, mpichLat)
	}
}

func TestCompositePriorityBeatsFIFO(t *testing.T) {
	// The §2 motivation: a control message inside a bulk stream. The
	// priority strategy must deliver it far sooner than MPICH's FIFO.
	prioOpts := core.DefaultOptions()
	prioOpts.Strategy = "prio"
	prio, err := compositeControlLatency(nil, madMPI(prioOpts), mxRails(), 16<<10, 16, true)
	if err != nil {
		t.Fatal(err)
	}
	fifo, err := compositeControlLatency(nil, mpichLike(), mxRails(), 16<<10, 16, false)
	if err != nil {
		t.Fatal(err)
	}
	if prio >= fifo/2 {
		t.Errorf("priority control latency %.1f µs vs MPICH %.1f µs: want at least 2x better", prio, fifo)
	}
}

func TestSamplingAdaptsToCongestion(t *testing.T) {
	cold, err := congestedTransfer(nil, 4<<20, 0.3, 0)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := congestedTransfer(nil, 4<<20, 0.3, 4)
	if err != nil {
		t.Fatal(err)
	}
	if speedup := cold / warm; speedup < 1.4 {
		t.Errorf("sampled plan speedup %.2fx under 30%% congestion, want >= 1.4x", speedup)
	}
	// Without congestion the sampled plan must not be worse than nominal
	// by more than a whisker.
	coldOK, err := congestedTransfer(nil, 4<<20, 1.0, 0)
	if err != nil {
		t.Fatal(err)
	}
	warmOK, err := congestedTransfer(nil, 4<<20, 1.0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if warmOK > coldOK*1.05 {
		t.Errorf("sampling hurt the uncongested case: %.1f vs %.1f µs", warmOK, coldOK)
	}
}

func TestMultirailAblationWins(t *testing.T) {
	split := core.DefaultOptions()
	split.Strategy = "split"
	two, err := rawPingPong(nil, madMPI(split), []simnet.Profile{simnet.MX10G(), simnet.QsNetII()}, 8<<20)
	if err != nil {
		t.Fatal(err)
	}
	one, err := rawPingPong(nil, madMPI(core.DefaultOptions()), mxRails(), 8<<20)
	if err != nil {
		t.Fatal(err)
	}
	if speedup := one / two; speedup < 1.3 || speedup > 1.9 {
		t.Errorf("two-rail speedup %.2fx on 8MB, want ~1.7x (bandwidth sum / MX alone)", speedup)
	}
}

func TestIncastWorkloadBoundedByCredits(t *testing.T) {
	burst := scenario.PhaseSpec{Kind: "incast", Target: 0, Msgs: 24, Size: 1 << 10, Count: 1, DrainGap: 2 * sim.Microsecond}
	opts := core.DefaultOptions()
	opts.Credits, opts.MaxGrants = 8, 2
	bounded, err := runPhase(nil, 5, opts, 0, 0, burst)
	if err != nil {
		t.Fatal(err)
	}
	if peak := bounded.Stats[0].PeakUnexpected; peak > 8 {
		t.Errorf("peak unexpected queue %d exceeds the credit budget 8", peak)
	}
	if n := bounded.Stats[0].ProtocolErrors; n != 0 {
		t.Errorf("protocol errors under overload: %d", n)
	}
	free, err := runPhase(nil, 5, core.DefaultOptions(), 0, 0, burst)
	if err != nil {
		t.Fatal(err)
	}
	if free.Stats[0].PeakUnexpected <= bounded.Stats[0].PeakUnexpected {
		t.Errorf("without flow control the queue peaked at %d, bounded run at %d: the workload no longer overloads",
			free.Stats[0].PeakUnexpected, bounded.Stats[0].PeakUnexpected)
	}
}

func TestAllreduceWorkload(t *testing.T) {
	// Every algorithm must verify and return a positive completion time.
	var seed, tree, ring float64
	var err error
	const nodes, bytes = 8, 1 << 20
	if seed, err = allreduceTime(nil, allreduceConfig{Nodes: nodes, Elems: bytes / 8, Algo: seedAlgo}); err != nil {
		t.Fatal(err)
	}
	if tree, err = allreduceTime(nil, allreduceConfig{Nodes: nodes, Elems: bytes / 8, Algo: "tree"}); err != nil {
		t.Fatal(err)
	}
	if ring, err = allreduceTime(nil, allreduceConfig{Nodes: nodes, Elems: bytes / 8, Algo: "ring"}); err != nil {
		t.Fatal(err)
	}
	if seed <= 0 || tree <= 0 || ring <= 0 {
		t.Fatalf("non-positive completion times: seed=%g tree=%g ring=%g", seed, tree, ring)
	}
	// The acceptance bar of the schedule engine: on large vectors the
	// segmented pipelined ring beats the seed's blocking binomial tree.
	if ring >= seed {
		t.Errorf("pipelined ring (%.0f µs) not faster than the seed blocking tree (%.0f µs) on %d nodes x %dKB",
			ring, seed, nodes, bytes>>10)
	}
	// The nonblocking tree must also not lose to its blocking ancestor.
	if tree > seed {
		t.Errorf("schedule-engine tree (%.0f µs) slower than the seed blocking tree (%.0f µs)", tree, seed)
	}
	// Bad configurations are rejected.
	if _, err := allreduceTime(nil, allreduceConfig{Nodes: 1, Elems: 8}); err == nil {
		t.Error("single-node allreduce bench must be rejected")
	}
	if _, err := allreduceTime(nil, allreduceConfig{Nodes: 4, Elems: 16, Algo: "no-such"}); err == nil {
		t.Error("unknown algorithm must be rejected")
	}
}
