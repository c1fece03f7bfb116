package madmpi

import (
	"encoding/binary"
	"fmt"
	"math"

	"nmad/internal/sim"
)

// Reduction collectives over float64 vectors — enough for the dominant
// numerical use of MPI_Reduce/Allreduce — compiled onto the collective
// schedule engine. The accumulator travels packed as bytes; fold steps
// are compute nodes of the DAG, ordered by explicit dependencies so the
// association order (and therefore the floating-point result) is
// deterministic per algorithm.

// Op is a binary reduction operator applied element-wise.
type Op func(a, b float64) float64

// Predefined operators.
var (
	OpSum  Op = func(a, b float64) float64 { return a + b }
	OpMax  Op = math.Max
	OpMin  Op = math.Min
	OpProd Op = func(a, b float64) float64 { return a * b }
)

// Reduce combines every rank's send vector element-wise into recv at
// root (recv is ignored elsewhere, and must be exactly len(send) long at
// root). All ranks must pass vectors of equal length.
func (c *Comm) Reduce(p *sim.Proc, send, recv []float64, op Op, root int) error {
	n, me := c.Size(), c.Rank()
	if root < 0 || root >= n {
		return fmt.Errorf("%w: reduce root %d", ErrBadRank, root)
	}
	// The slot is consumed before the root-only buffer check so the
	// other ranks stay in tag-space lockstep (see Gather).
	seq := c.nextCollSeq()
	if me == root && len(recv) != len(send) {
		return fmt.Errorf("%w: reduce recv vector %d elements, want exactly %d",
			ErrCollBuffer, len(recv), len(send))
	}
	if n == 1 {
		copy(recv, send)
		return nil
	}
	acc := PackF64(send)
	a := CollArgs{Rank: me, Size: n, Root: root, Buf: acc, Op: op, SegBytes: c.mpi.CollSegment()}
	if err := c.runColl(p, CollReduce, len(acc), seq, a); err != nil {
		return err
	}
	if me == root {
		unpackF64Into(recv, acc)
	}
	return nil
}

// reduceBinomial is the binomial tree: in round k, vranks with bit k set
// send their accumulator to vrank-2^k and drop out; the others receive
// and fold. Receives are all preposted; the folds chain in mask order so
// the association matches the seed's, and the send to the parent waits
// only on the last fold.
func reduceBinomial(pl *CollPlan, a CollArgs) error {
	n, root := a.Size, a.Root
	vrank := (a.Rank - root + n) % n
	acc, op := a.Buf, a.Op
	lastFold := -1
	for mask := 1; mask < n; mask <<= 1 {
		if vrank&mask != 0 {
			dst := (vrank - mask + root) % n
			pl.Send(dst, acc, lastFold)
			return nil
		}
		if vrank+mask < n {
			src := (vrank + mask + root) % n
			tmp := make([]byte, len(acc))
			r := pl.Recv(src, tmp)
			lastFold = pl.Compute(func() { foldF64(acc, tmp, op) }, r, lastFold)
		}
	}
	return nil
}

// reducePipeline is the segmented chain: ranks form a chain from the
// highest vrank down to the root; each rank folds an arriving segment
// into its local accumulator and forwards it rootward as soon as the
// fold lands. Segments pipeline through the chain, so for long vectors
// every link is busy at once.
func reducePipeline(pl *CollPlan, a CollArgs) error {
	n, root := a.Size, a.Root
	vrank := (a.Rank - root + n) % n
	acc, op := a.Buf, a.Op
	up := (vrank + 1 + root) % n   // further from the root
	down := (vrank - 1 + root) % n // closer to the root
	for _, span := range segSpans(0, len(acc), a.SegBytes, 8, collPairSpace) {
		seg := acc[span[0] : span[0]+span[1]]
		foldStep := -1
		if vrank < n-1 {
			tmp := make([]byte, len(seg))
			r := pl.Recv(up, tmp)
			dst := seg
			foldStep = pl.Compute(func() { foldF64(dst, tmp, op) }, r)
		}
		if vrank > 0 {
			pl.Send(down, seg, foldStep)
		}
	}
	return nil
}

// Allreduce is a Reduce whose result lands on every rank. recv must be
// exactly len(send) elements on every rank.
func (c *Comm) Allreduce(p *sim.Proc, send, recv []float64, op Op) error {
	n, me := c.Size(), c.Rank()
	if len(recv) != len(send) {
		return fmt.Errorf("%w: allreduce recv vector %d elements, want exactly %d",
			ErrCollBuffer, len(recv), len(send))
	}
	if n == 1 {
		copy(recv, send)
		return nil
	}
	seq := c.nextCollSeq()
	acc := PackF64(send)
	a := CollArgs{Rank: me, Size: n, Buf: acc, Op: op, SegBytes: c.mpi.CollSegment()}
	if err := c.runColl(p, CollAllreduce, len(acc), seq, a); err != nil {
		return err
	}
	unpackF64Into(recv, acc)
	return nil
}

// allreduceTree fuses a binomial reduce to rank 0 with a binomial
// broadcast of the result into one DAG — latency-optimal for short
// vectors. The broadcast receive reuses the accumulator buffer, so it
// depends on the reduce-phase send retiring (buffer-reuse safety); the
// child forwards then hang off that receive.
func allreduceTree(pl *CollPlan, a CollArgs) error {
	n, me := a.Size, a.Rank
	acc, op := a.Buf, a.Op
	// Reduce phase toward vrank 0 (root = rank 0: vrank == rank).
	lastFold, reduceSend := -1, -1
	for mask := 1; mask < n; mask <<= 1 {
		if me&mask != 0 {
			reduceSend = pl.Send(me-mask, acc, lastFold)
			break
		}
		if me+mask < n {
			tmp := make([]byte, len(acc))
			r := pl.Recv(me+mask, tmp)
			lastFold = pl.Compute(func() { foldF64(acc, tmp, op) }, r, lastFold)
		}
	}
	// Broadcast phase from vrank 0 over the same buffer.
	mask := binomialMask(me)
	bcastReady := lastFold
	if me != 0 {
		bcastReady = pl.Recv(me-mask/2, acc, reduceSend)
	}
	for ; me+mask < n; mask <<= 1 {
		pl.Send(me+mask, acc, bcastReady)
	}
	return nil
}

// allreduceRing is the bandwidth-optimal segmented ring: a
// reduce-scatter pass (n-1 rounds; each rank ends owning one fully
// reduced chunk) followed by an allgather pass (n-1 rounds circulating
// the reduced chunks). Chunks are split into segments so a segment is
// forwarded the moment its fold lands — the pipelined ring that keeps
// every link busy for the whole operation and moves only 2(n-1)/n of
// the vector per link.
func allreduceRing(pl *CollPlan, a CollArgs) error {
	n, me := a.Size, a.Rank
	acc, op := a.Buf, a.Op
	next, prev := (me+1)%n, (me-1+n)%n
	elems := len(acc) / 8

	// Balanced element chunks, chunk i destined to be owned reduced by
	// rank (i-1+n)%n after the reduce-scatter pass.
	spans := make([][][2]int, n)
	// Both ring passes traverse each (rank, successor) pair once per
	// chunk; keep the total within the per-pair sub-tag budget.
	maxSegs := collPairSpace / (2 * (n - 1))
	if maxSegs < 1 {
		maxSegs = 1
	}
	q, rem := elems/n, elems%n
	off := 0
	for i := 0; i < n; i++ {
		l := q
		if i < rem {
			l++
		}
		spans[i] = segSpans(off*8, l*8, a.SegBytes, 8, maxSegs)
		off += l
	}

	segBuf := func(span [2]int) []byte { return acc[span[0] : span[0]+span[1]] }

	// Reduce-scatter: round t sends chunk (me-t) onward and folds the
	// arriving chunk (me-t-1); round t+1 forwards exactly what round t
	// folded, segment by segment.
	rsSend := make([][]int, n)
	rsFold := make([][]int, n)
	for t := 0; t < n-1; t++ {
		sc := (me - t + n) % n
		rc := (me - t - 1 + n) % n
		rsSend[sc] = make([]int, len(spans[sc]))
		for s, span := range spans[sc] {
			if t == 0 {
				rsSend[sc][s] = pl.Send(next, segBuf(span))
			} else {
				rsSend[sc][s] = pl.Send(next, segBuf(span), rsFold[sc][s])
			}
		}
		rsFold[rc] = make([]int, len(spans[rc]))
		for s, span := range spans[rc] {
			tmp := make([]byte, span[1])
			r := pl.Recv(prev, tmp)
			dst := segBuf(span)
			rsFold[rc][s] = pl.Compute(func() { foldF64(dst, tmp, op) }, r)
		}
	}

	// Allgather: circulate the reduced chunks. The receive of chunk
	// (me-t) overwrites a span whose reduce-scatter send (same round
	// index t) must have retired first — buffer-reuse safety.
	agRecv := make([][]int, n)
	for t := 0; t < n-1; t++ {
		sc := (me + 1 - t + 2*n) % n
		rc := (me - t + n) % n
		for s, span := range spans[sc] {
			if t == 0 {
				pl.Send(next, segBuf(span), rsFold[sc][s])
			} else {
				pl.Send(next, segBuf(span), agRecv[sc][s])
			}
		}
		agRecv[rc] = make([]int, len(spans[rc]))
		for s, span := range spans[rc] {
			agRecv[rc][s] = pl.Recv(prev, segBuf(span), rsSend[rc][s])
		}
	}
	return nil
}

// PackF64 packs a float64 vector into its little-endian wire bytes —
// the representation the reduction schedules fold over. Exported so the
// bench harness's seed baseline shares the exact format.
func PackF64(v []float64) []byte {
	out := make([]byte, 8*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(x))
	}
	return out
}

// UnpackF64 is the inverse of PackF64.
func UnpackF64(b []byte, n int) []float64 {
	out := make([]float64, n)
	unpackF64Into(out, b)
	return out
}

// unpackF64Into unpacks into an existing vector, so the hot collective
// entry points do not allocate a second copy of the result.
func unpackF64Into(dst []float64, b []byte) {
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
}
