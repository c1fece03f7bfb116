package nmad_test

// SPI contract tests: strategies written OUTSIDE internal/core, plugged
// in through the facade, cannot break the engine's delivery semantics.
// The adversarial strategy below actively tries — stale picks, duplicated
// picks, forged refs, budget overflows — and the engine's election
// validation must keep every wrapper conserved (nothing lost, nothing
// duplicated) and every flow delivered in per-flow order.

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"nmad"
	"nmad/sched"
)

// adversary is a randomized, rule-breaking strategy. It always includes
// one genuinely electable wrapper (progress), then salts the election
// with whatever the SPI contract forbids.
type adversary struct {
	rng       *rand.Rand
	stale     []sched.Wrapper // picks from earlier elections, replayed
	elections int
}

func (a *adversary) Name() string { return "adversary" }

func (a *adversary) Elect(w sched.Window, rail sched.RailInfo) *sched.Election {
	var all []sched.Wrapper
	w.Scan(func(pw sched.Wrapper) bool {
		all = append(all, pw)
		return true
	})
	first := -1
	for i, pw := range all {
		if pw.Segments <= rail.Caps.MaxSegments {
			first = i
			break
		}
	}
	if first < 0 {
		return nil // nothing this rail can carry; a wider rail will
	}
	a.elections++
	el := new(sched.Election)
	el.Pick(all[first])
	for i, pw := range all {
		if i == first {
			continue
		}
		switch a.rng.Intn(4) {
		case 0: // legitimate extra pick (may blow the byte budget — allowed)
			el.Pick(pw)
		case 1: // duplicated pick: the engine must send it once
			el.Pick(pw)
			el.Pick(pw)
		}
	}
	if len(a.stale) > 0 && a.rng.Intn(2) == 0 {
		// Stale pick: elected before, possibly long gone from the window.
		el.Pick(a.stale[a.rng.Intn(len(a.stale))])
	}
	if a.rng.Intn(3) == 0 {
		// Forged refs: must be ignored, not crash.
		bogus := all[first]
		bogus.Ref = nil
		el.Pick(bogus)
		forged := all[first]
		forged.Ref = "not a packet"
		el.Pick(forged)
	}
	for _, pw := range el.Wrappers() {
		if len(a.stale) < 64 {
			a.stale = append(a.stale, pw)
		}
	}
	return el
}

// spiRails varies the rail mix per seed: single rail, heterogeneous
// RDMA pair, and an RDMA/non-RDMA pair (TCP drives the eager chunk
// path for rendezvous bodies).
func spiRails(seed int64) []nmad.Profile {
	switch seed % 3 {
	case 0:
		return []nmad.Profile{nmad.MX10G()}
	case 1:
		return []nmad.Profile{nmad.MX10G(), nmad.QsNetII()}
	default:
		return []nmad.Profile{nmad.MX10G(), nmad.TCPGbE()}
	}
}

func TestSPIAdversarialConservationAndOrder(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			cl, err := nmad.NewCluster(2, nmad.WithRails(spiRails(seed)...))
			if err != nil {
				t.Fatal(err)
			}
			// Odd seeds share ONE strategy instance between both engines:
			// its stale cache then leaks wrapper refs across engines,
			// which the election validation must reject.
			adv0 := &adversary{rng: rand.New(rand.NewSource(seed * 7))}
			adv1 := adv0
			if seed%2 == 0 {
				adv1 = &adversary{rng: rand.New(rand.NewSource(seed*7 + 1))}
			}
			e0, err := cl.Engine(0, nmad.WithStrategy(adv0))
			if err != nil {
				t.Fatal(err)
			}
			e1, err := cl.Engine(1, nmad.WithStrategy(adv1))
			if err != nil {
				t.Fatal(err)
			}

			// A randomized schedule over three flows: tiny, eager,
			// near-threshold and rendezvous sizes, some as vector sends.
			type msg struct {
				tag  nmad.Tag
				data []byte
				segs int
			}
			var msgs []msg
			n := 6 + rng.Intn(18)
			for i := 0; i < n; i++ {
				var size int
				switch rng.Intn(4) {
				case 0:
					size = rng.Intn(64)
				case 1:
					size = 64 + rng.Intn(4<<10)
				case 2:
					size = 4<<10 + rng.Intn(28<<10)
				default:
					size = 32<<10 + rng.Intn(128<<10)
				}
				data := make([]byte, size)
				rng.Read(data)
				segs := 1
				if size >= 8 && rng.Intn(3) == 0 {
					segs = 2 + rng.Intn(3)
				}
				msgs = append(msgs, msg{tag: nmad.Tag(rng.Intn(3)), data: data, segs: segs})
			}

			perTag := map[nmad.Tag]int{}
			for _, m := range msgs {
				perTag[m.tag]++
			}
			got := map[nmad.Tag][][]byte{}

			cl.Spawn("send", func(p *nmad.Proc) {
				for _, m := range msgs {
					if m.segs > 1 {
						segs := make([][]byte, m.segs)
						per := len(m.data) / m.segs
						for s := 0; s < m.segs; s++ {
							lo := s * per
							hi := lo + per
							if s == m.segs-1 {
								hi = len(m.data)
							}
							segs[s] = m.data[lo:hi]
						}
						e0.Gate(1).Isendv(p, m.tag, segs)
					} else {
						e0.Gate(1).Isend(p, m.tag, m.data)
					}
				}
			})
			for tag, count := range perTag {
				tag, count := tag, count
				cl.Spawn(fmt.Sprintf("recv-%d", tag), func(p *nmad.Proc) {
					for i := 0; i < count; i++ {
						buf := make([]byte, 200<<10)
						n, err := e1.Gate(0).Recv(p, tag, buf)
						if err != nil {
							t.Errorf("tag %d message %d: %v", tag, i, err)
							return
						}
						got[tag] = append(got[tag], append([]byte(nil), buf[:n]...))
					}
				})
			}
			if err := cl.Run(); err != nil {
				t.Fatalf("run under adversarial strategy: %v", err)
			}

			// Delivery: intact content, per-flow submission order.
			want := map[nmad.Tag][][]byte{}
			for _, m := range msgs {
				want[m.tag] = append(want[m.tag], m.data)
			}
			for tag, ms := range want {
				if len(got[tag]) != len(ms) {
					t.Fatalf("tag %d: delivered %d of %d messages", tag, len(got[tag]), len(ms))
				}
				for i := range ms {
					if !bytes.Equal(got[tag][i], ms[i]) {
						t.Fatalf("tag %d message %d corrupted, reordered or duplicated", tag, i)
					}
				}
			}

			// Conservation: the windows drained, and every submitted
			// wrapper was elected exactly once (Submitted == EntriesSent
			// can only balance if nothing is lost or double-sent).
			for i, e := range []*nmad.Engine{e0, e1} {
				if !e.WindowEmpty() {
					t.Errorf("engine %d: window not drained", i)
				}
				st := e.Stats()
				if st.Submitted != st.EntriesSent {
					t.Errorf("engine %d: %d wrappers submitted, %d elected — conservation violated",
						i, st.Submitted, st.EntriesSent)
				}
			}
			if adv0.elections == 0 {
				t.Error("the adversarial strategy was never consulted")
			}
		})
	}
}

// fifoStrategy is the minimal well-behaved out-of-package strategy: one
// wrapper per packet, strict submission order.
type fifoStrategy struct{}

func (fifoStrategy) Name() string { return "spi-test-fifo" }

func (fifoStrategy) Elect(w sched.Window, rail sched.RailInfo) *sched.Election {
	el := new(sched.Election)
	w.Scan(func(pw sched.Wrapper) bool {
		if pw.Segments > rail.Caps.MaxSegments {
			return true
		}
		el.Pick(pw)
		return false
	})
	if el.Empty() {
		return nil
	}
	return el
}

// Registered once at package init so repeated test runs in one process
// (-count=2) don't trip the duplicate check.
var fifoRegErr = nmad.RegisterStrategy("spi-test-fifo", func() nmad.Strategy { return fifoStrategy{} })

func TestCustomStrategyRegisteredThroughFacade(t *testing.T) {
	if fifoRegErr != nil {
		t.Fatalf("RegisterStrategy: %v", fifoRegErr)
	}
	found := false
	for _, n := range nmad.Strategies() {
		if n == "spi-test-fifo" {
			found = true
		}
	}
	if !found {
		t.Fatalf("Strategies() = %v, missing the registered strategy", nmad.Strategies())
	}

	// A multinode ring exchange running entirely on the user strategy.
	const nodes = 4
	cl, err := nmad.NewCluster(nodes, nmad.WithRails(nmad.MX10G(), nmad.QsNetII()))
	if err != nil {
		t.Fatal(err)
	}
	engines := make([]*nmad.Engine, nodes)
	for i := range engines {
		if engines[i], err = cl.Engine(i, nmad.WithStrategy("spi-test-fifo")); err != nil {
			t.Fatal(err)
		}
		if engines[i].StrategyName() != "spi-test-fifo" {
			t.Fatalf("engine %d strategy %q", i, engines[i].StrategyName())
		}
	}
	payload := func(from, to int) []byte {
		return bytes.Repeat([]byte{byte(10*from + to)}, 2<<10)
	}
	for i := range engines {
		i := i
		cl.Spawn(fmt.Sprintf("node-%d", i), func(p *nmad.Proc) {
			next, prev := (i+1)%nodes, (i+nodes-1)%nodes
			s := engines[i].Gate(nmad.NodeID(next)).Isend(p, 9, payload(i, next))
			buf := make([]byte, 4<<10)
			n, err := engines[i].Gate(nmad.NodeID(prev)).Recv(p, 9, buf)
			if err != nil {
				t.Errorf("node %d recv: %v", i, err)
				return
			}
			if !bytes.Equal(buf[:n], payload(prev, i)) {
				t.Errorf("node %d: wrong ring payload from %d", i, prev)
			}
			if err := s.Wait(p); err != nil {
				t.Errorf("node %d send: %v", i, err)
			}
		})
	}
	if err := cl.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestWithStrategyValueAndErrors(t *testing.T) {
	cl, err := nmad.NewCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	// A Strategy value, no registry involved.
	e, err := cl.Engine(0, nmad.WithStrategy(fifoStrategy{}))
	if err != nil {
		t.Fatalf("WithStrategy(value): %v", err)
	}
	if e.StrategyName() != "spi-test-fifo" {
		t.Errorf("StrategyName = %q", e.StrategyName())
	}
	// Errors surface from construction, not panics.
	if _, err := cl.Engine(0, nmad.WithStrategy(42)); err == nil {
		t.Error("WithStrategy(42) must error")
	}
	if _, err := cl.Engine(0, nmad.WithStrategy("no-such-strategy")); err == nil {
		t.Error("unknown strategy name must error")
	}
	if _, err := cl.MPI(0, nmad.WithStrategy(3.14)); err == nil {
		t.Error("MPI must surface option errors too")
	}
	// Duplicate registration reports an error instead of panicking.
	if err := nmad.RegisterStrategy("aggreg", func() nmad.Strategy { return fifoStrategy{} }); err == nil {
		t.Error("duplicate RegisterStrategy must error")
	}
}

func TestAdaptiveStrategyEndToEnd(t *testing.T) {
	cl, err := nmad.NewCluster(2, nmad.WithRails(nmad.MX10G(), nmad.QsNetII()))
	if err != nil {
		t.Fatal(err)
	}
	e0, err := cl.Engine(0, nmad.WithStrategy("adaptive"))
	if err != nil {
		t.Fatal(err)
	}
	e1, err := cl.Engine(1, nmad.WithStrategy("adaptive"))
	if err != nil {
		t.Fatal(err)
	}
	const rounds = 6
	data := make([]byte, 2<<20)
	for i := range data {
		data[i] = byte(i)
	}
	cl.Spawn("send", func(p *nmad.Proc) {
		for i := 0; i < rounds; i++ {
			if err := e0.Gate(1).Send(p, 1, data); err != nil {
				t.Errorf("round %d: %v", i, err)
			}
		}
	})
	cl.Spawn("recv", func(p *nmad.Proc) {
		buf := make([]byte, len(data))
		for i := 0; i < rounds; i++ {
			if _, err := e1.Gate(0).Recv(p, 1, buf); err != nil {
				t.Errorf("round %d: %v", i, err)
				return
			}
		}
		if !bytes.Equal(buf, data) {
			t.Error("adaptive transfer corrupted payload")
		}
	})
	if err := cl.Run(); err != nil {
		t.Fatal(err)
	}
	st := e0.Stats()
	if st.BodyBytes == 0 {
		t.Error("large transfers should have used the rendezvous body path")
	}
	// The warmed sampler must be feeding the strategy a functional figure.
	if e0.SampledBandwidth(0) == 0 && e0.SampledBandwidth(1) == 0 {
		t.Error("no rail sampler warmed up — the adaptive signal is dead")
	}
}
