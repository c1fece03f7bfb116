package bench

import (
	"fmt"

	"nmad/internal/sim"
	"nmad/internal/simnet"
)

// Runners for the three workloads of §5. Each returns the mean one-way
// transfer time in virtual microseconds. Here and in every measurement of
// the package, wk is the Work the measured worlds count into (nil: not
// counting).

// defaultWarmup and defaultIters: the simulation is deterministic, so a
// couple of warmup round-trips (to establish gates and reach steady
// protocol state) and a handful of measured ones suffice.
const (
	defaultWarmup = 2
	defaultIters  = 5
)

// exchange is one direction of a ping-pong as rank me (0 or 1) sees it:
// everything the rank posts toward, or expects from, rank 1-me.
type exchange func(p *sim.Proc, peer mpiPeer, me int) error

// pingPong is the two-rank loop behind all three workloads, which differ
// only in what a ping sends and what a pong receives: rank 0 sends then
// receives, rank 1 mirrors it, and the clock is read on rank 0 around
// the measured iterations. what labels the error of a failed run.
func pingPong(wk *sim.Work, impl mpiImpl, profs []simnet.Profile, what string, send, recv exchange) (float64, error) {
	g, p0, p1, err := impl.start(wk, profs)
	if err != nil {
		return 0, err
	}
	var start, stop sim.Time
	for me, peer := range []mpiPeer{p0, p1} {
		first, second := send, recv
		if me == 1 {
			first, second = recv, send
		}
		g.Go(fmt.Sprintf("rank%d", me), func(p *sim.Proc) error {
			for i := 0; i < defaultWarmup+defaultIters; i++ {
				if me == 0 && i == defaultWarmup {
					start = p.Now()
				}
				if err := first(p, peer, me); err != nil {
					return err
				}
				if err := second(p, peer, me); err != nil {
					return err
				}
			}
			if me == 0 {
				stop = p.Now()
			}
			return nil
		})
	}
	if err := g.Run(); err != nil {
		return 0, fmt.Errorf("bench: %s: %w", what, err)
	}
	return (stop - start).Microseconds() / defaultIters / 2, nil // mean half round trip
}

// rawPingPong runs the §5.1 workload: a single-segment ping-pong of the
// given size, returning the one-way latency in µs.
func rawPingPong(wk *sim.Work, impl mpiImpl, profs []simnet.Profile, size int) (float64, error) {
	buf := [2][]byte{make([]byte, size), make([]byte, size)}
	return pingPong(wk, impl, profs, fmt.Sprintf("ping-pong(%s, %d)", impl.Name, size),
		func(p *sim.Proc, peer mpiPeer, me int) error { return peer.Isend(p, buf[me], 1-me, 0, 0).Wait(p) },
		func(p *sim.Proc, peer mpiPeer, me int) error { return peer.Irecv(p, buf[me], 1-me, 0, 0).Wait(p) })
}

// multiSegPingPong runs the §5.2 workload: each "ping" is nsegs
// independent Isends of segSize bytes, each on its own communicator
// (showing that the optimization scope is global), completed by Wait on
// every request. Returns the one-way latency in µs.
func multiSegPingPong(wk *sim.Work, impl mpiImpl, profs []simnet.Profile, segSize, nsegs int) (float64, error) {
	var bufs [2][][]byte
	for me := range bufs {
		bufs[me] = make([][]byte, nsegs)
		for i := range bufs[me] {
			bufs[me][i] = make([]byte, segSize)
		}
	}
	// mpiPeer.Isend and mpiPeer.Irecv share a signature, so one closure posts
	// either on every communicator and waits for all of them.
	all := func(post func(mpiPeer, *sim.Proc, []byte, int, int, int) pending) exchange {
		return func(p *sim.Proc, peer mpiPeer, me int) error {
			reqs := make([]pending, nsegs)
			for i := range reqs {
				reqs[i] = post(peer, p, bufs[me][i], 1-me, 0, i)
			}
			return waitEach(p, reqs)
		}
	}
	return pingPong(wk, impl, profs, fmt.Sprintf("multiseg(%s, %d x %d)", impl.Name, nsegs, segSize),
		all(mpiPeer.Isend), all(mpiPeer.Irecv))
}

// paperDatatypeSegs builds the §5.3 layout: a sequence of (64 B small,
// 256 KB large) block pairs totalling total data bytes. The blocks are
// separated by gaps in memory — that is what makes the datatype genuinely
// non-contiguous (adjacent blocks would flatten into one segment and
// nobody would need to pack anything).
func paperDatatypeSegs(total int) []seg {
	const small, large, gap = 64, 256 << 10, 64
	pair := small + large
	var segs []seg
	off, data := 0, 0
	add := func(n int) {
		segs = append(segs, seg{Off: off, Len: n})
		off += n + gap
		data += n
	}
	for data+pair <= total {
		add(small)
		add(large)
	}
	if rem := total - data; rem > 0 {
		if rem > small {
			add(small)
			rem -= small
		}
		add(rem)
	}
	return segs
}

// datatypeExtent is the buffer size needed to hold the layout of
// paperDatatypeSegs(total).
func datatypeExtent(total int) int {
	segs := paperDatatypeSegs(total)
	last := segs[len(segs)-1]
	return last.Off + last.Len
}

// datatypePingPong runs the §5.3 workload: a ping-pong of the indexed
// datatype (small/large block pairs) totalling total bytes. Returns the
// one-way transfer time in µs.
func datatypePingPong(wk *sim.Work, impl mpiImpl, profs []simnet.Profile, total int) (float64, error) {
	segs := paperDatatypeSegs(total)
	extent := datatypeExtent(total)
	base := [2][]byte{make([]byte, extent), make([]byte, extent)}
	return pingPong(wk, impl, profs, fmt.Sprintf("datatype(%s, %d)", impl.Name, total),
		func(p *sim.Proc, peer mpiPeer, me int) error { return peer.SendTyped(p, base[me], segs, 1-me, 0, 0) },
		func(p *sim.Proc, peer mpiPeer, me int) error { return peer.RecvTyped(p, base[me], segs, 1-me, 0, 0) })
}
