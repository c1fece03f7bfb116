package core

// iovec is a gather/scatter list: one logical byte range made of several
// contiguous segments anywhere in user space. It is the engine-internal
// form of the public [][]byte accepted by Isendv/Irecvv — vector wrappers
// travel as one wire entry whose payload is the segment concatenation, so
// the NIC gathers on send and the receive path scatters on delivery,
// without intermediate staging copies.
type iovec [][]byte

// singleIov wraps one contiguous buffer (possibly nil) as an iovec.
func singleIov(buf []byte) iovec {
	if buf == nil {
		return iovec{nil}
	}
	return iovec{buf}
}

// total is the logical length: the sum of the segment lengths.
func (v iovec) total() int {
	n := 0
	for _, s := range v {
		n += len(s)
	}
	return n
}

// segCount counts the non-empty segments (what a NIC gather list needs).
func (v iovec) segCount() int {
	n := 0
	for _, s := range v {
		if len(s) > 0 {
			n++
		}
	}
	return n
}

// segLens appends the segment lengths to dst (empty segments included,
// so a recorded layout replays exactly as it was submitted).
func (v iovec) segLens(dst []int) []int {
	for _, s := range v {
		dst = append(dst, len(s))
	}
	return dst
}

// appendSegs appends the non-empty segments to a gather list.
func (v iovec) appendSegs(segs [][]byte) [][]byte {
	for _, s := range v {
		if len(s) > 0 {
			segs = append(segs, s)
		}
	}
	return segs
}

// appendRange appends the sub-range [off, off+n) to segs as segments
// sharing the underlying memory (zero-copy), and returns the extended
// list. It panics when the range exceeds the logical length.
func (v iovec) appendRange(segs iovec, off, n int) iovec {
	if n == 0 {
		return segs
	}
	for _, s := range v {
		if off >= len(s) {
			off -= len(s)
			continue
		}
		take := min(len(s)-off, n)
		segs = append(segs, s[off:off+take])
		n -= take
		off = 0
		if n == 0 {
			return segs
		}
	}
	panic("core: iovec range out of bounds")
}

// capSegs returns the largest m <= n such that the range [off, off+m)
// spans at most maxSegs segments — how rendezvous chunks stay within a
// rail's native gather capacity. It returns at least one segment's worth of
// bytes whenever n > 0 and off is in range.
func (v iovec) capSegs(off, n, maxSegs int) int {
	if maxSegs <= 0 {
		maxSegs = 1
	}
	taken, segs := 0, 0
	for _, s := range v {
		if off >= len(s) {
			off -= len(s)
			continue
		}
		avail := len(s) - off
		if avail > n-taken {
			avail = n - taken
		}
		segs++
		if segs > maxSegs {
			return taken
		}
		taken += avail
		off = 0
		if taken == n {
			return n
		}
	}
	return taken
}

// copyAt scatters data into the iovec starting at logical offset off,
// dropping whatever does not fit (the truncation contract of receives).
// It returns the number of bytes placed.
func (v iovec) copyAt(off int, data []byte) int {
	placed := 0
	for _, s := range v {
		if len(data) == 0 {
			break
		}
		if off >= len(s) {
			off -= len(s)
			continue
		}
		n := copy(s[off:], data)
		data = data[n:]
		placed += n
		off = 0
	}
	return placed
}

// flatten copies the segments into one contiguous buffer (the software
// gather fallback when a wrapper exceeds the rail's segment capacity).
func (v iovec) flatten() []byte {
	out := make([]byte, 0, v.total())
	for _, s := range v {
		out = append(out, s...)
	}
	return out
}
