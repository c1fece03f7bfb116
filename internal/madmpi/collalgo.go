package madmpi

import (
	"fmt"
	"sort"
	"sync"
)

// The collective algorithm registry, mirroring the scheduling-strategy
// registry (sched.Register): algorithms are named constructors of
// schedule DAGs, selectable per collective kind. The engine picks one
// automatically from the message size and communicator size (the classic
// MPICH-style switching between binomial, dissemination, ring and
// pipelined algorithms), and MPI.ForceCollAlgo pins one explicitly.

// CollKind names a collective operation with pluggable algorithms.
type CollKind string

// The collective kinds.
const (
	CollBarrier   CollKind = "barrier"
	CollBcast     CollKind = "bcast"
	CollGather    CollKind = "gather"
	CollScatter   CollKind = "scatter"
	CollAllgather CollKind = "allgather"
	CollAlltoall  CollKind = "alltoall"
	CollReduce    CollKind = "reduce"
	CollAllreduce CollKind = "allreduce"
)

// collKinds lists every kind, for validation and introspection.
var collKinds = []CollKind{
	CollBarrier, CollBcast, CollGather, CollScatter,
	CollAllgather, CollAlltoall, CollReduce, CollAllreduce,
}

// CollArgs is everything an algorithm builder sees: the caller's rank
// and the communicator size, the operation's buffers, and the
// pipelining segment hint. Buf is the in-place payload (the broadcast
// bytes; the packed float64 accumulator of a reduction, pre-loaded with
// the local contribution). SendBuf/RecvBuf are the distinct-buffer
// collectives' surfaces, with the caller's own slice already copied.
type CollArgs struct {
	Rank, Size, Root int
	Buf              []byte
	SendBuf, RecvBuf []byte
	Op               Op
	SegBytes         int
}

// CollAlgo compiles one rank's side of a collective into a schedule.
// Every rank runs the same builder with its own CollArgs; the loops must
// produce matching per-pair message orders (they do naturally when both
// sides iterate rounds and segments the same way).
type CollAlgo func(pl *CollPlan, a CollArgs) error

var (
	collRegistryMu sync.RWMutex
	collRegistry   = map[CollKind]map[string]CollAlgo{}
)

// RegisterCollAlgo adds an algorithm under (kind, name). Registering a
// duplicate name for a kind returns an error: algorithm names are global
// configuration keys, like strategy names.
func RegisterCollAlgo(kind CollKind, name string, algo CollAlgo) error {
	if name == "" || algo == nil {
		return fmt.Errorf("madmpi: RegisterCollAlgo needs a name and a builder")
	}
	if !validCollKind(kind) {
		return fmt.Errorf("madmpi: RegisterCollAlgo: unknown collective kind %q", kind)
	}
	collRegistryMu.Lock()
	defer collRegistryMu.Unlock()
	byName := collRegistry[kind]
	if byName == nil {
		byName = map[string]CollAlgo{}
		collRegistry[kind] = byName
	}
	if _, dup := byName[name]; dup {
		return fmt.Errorf("madmpi: duplicate %s algorithm %q", kind, name)
	}
	byName[name] = algo
	return nil
}

// mustRegisterCollAlgo installs the built-ins at init time.
func mustRegisterCollAlgo(kind CollKind, name string, algo CollAlgo) {
	if err := RegisterCollAlgo(kind, name, algo); err != nil {
		panic(err)
	}
}

// CollAlgoNames lists the algorithms registered for kind, sorted.
func CollAlgoNames(kind CollKind) []string {
	collRegistryMu.RLock()
	defer collRegistryMu.RUnlock()
	names := make([]string, 0, len(collRegistry[kind]))
	for n := range collRegistry[kind] {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// CollKinds lists every collective kind with pluggable algorithms.
func CollKinds() []CollKind {
	out := make([]CollKind, len(collKinds))
	copy(out, collKinds)
	return out
}

func validCollKind(kind CollKind) bool {
	for _, k := range collKinds {
		if k == kind {
			return true
		}
	}
	return false
}

// ValidateCollAlgo reports whether name is registered for kind —
// ErrCollAlgo otherwise. Callers use it to reject a configuration
// before constructing anything stateful.
func ValidateCollAlgo(kind CollKind, name string) error {
	_, err := lookupCollAlgo(kind, name)
	return err
}

// lookupCollAlgo resolves (kind, name) or reports ErrCollAlgo.
func lookupCollAlgo(kind CollKind, name string) (CollAlgo, error) {
	collRegistryMu.RLock()
	algo, ok := collRegistry[kind][name]
	collRegistryMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s %q (have %v)", ErrCollAlgo, kind, name, CollAlgoNames(kind))
	}
	return algo, nil
}

// collSmallBytes is the size pivot of the automatic selection: below it
// (or on tiny communicators) latency-optimal trees win; above it the
// bandwidth-optimal pipelined ring and chain algorithms win.
const collSmallBytes = 32 << 10

// defaultCollAlgo is the automatic algorithm selection, switching on
// message size and communicator size like the classic MPICH decision
// functions. bytes is the per-rank payload the algorithm moves. The
// round-count-driven algorithms (ring, pairwise) send O(n) messages
// between fixed neighbor pairs, so past the per-pair sub-tag budget
// the selector falls back to the tree-shaped algorithms instead of
// walking into a schedule-build failure.
func defaultCollAlgo(kind CollKind, n, bytes int) string {
	large := n >= 4 && bytes >= collSmallBytes
	switch kind {
	case CollBarrier:
		return "dissemination"
	case CollBcast:
		if large {
			return "pipeline"
		}
		return "binomial"
	case CollReduce:
		if large {
			return "pipeline"
		}
		return "binomial"
	case CollAllreduce:
		// The ring's two passes each cross every neighbor pair n-1 times.
		if large && 2*(n-1) <= collPairSpace {
			return "ring"
		}
		return "tree"
	case CollAllgather:
		if large && n-1 <= collPairSpace {
			return "ring"
		}
		return "gather-bcast"
	case CollAlltoall:
		if n >= 4 && bytes >= 4<<10 && n-1 <= collPairSpace {
			return "pairwise"
		}
		return "linear"
	default: // CollGather, CollScatter
		return "linear"
	}
}

// defaultCollSegment is the default pipelining segment for the segmented
// algorithms; MPI.SetCollSegment (or nmad.WithCollSegment) tunes it.
const defaultCollSegment = 8 << 10

// ForceCollAlgo pins the algorithm used for one collective kind on every
// communicator of this rank, bypassing the automatic selection. The name
// must be registered. Configure every rank of a job identically —
// algorithms only interoperate with themselves.
func (m *MPI) ForceCollAlgo(kind CollKind, name string) error {
	if _, err := lookupCollAlgo(kind, name); err != nil {
		return err
	}
	if m.collForce == nil {
		m.collForce = map[CollKind]string{}
	}
	m.collForce[kind] = name
	return nil
}

// CollSegment returns the pipelining segment size in bytes.
func (m *MPI) CollSegment() int {
	if m.collSeg <= 0 {
		return defaultCollSegment
	}
	return m.collSeg
}

// SetCollSegment sets the pipelining segment size in bytes for the
// segmented collective algorithms (pipeline bcast/reduce, ring
// allreduce). Configure every rank identically.
func (m *MPI) SetCollSegment(bytes int) { m.collSeg = bytes }

// algoFor resolves the algorithm to run: the forced name if pinned,
// otherwise the automatic selection.
func (c *Comm) algoFor(kind CollKind, bytes int) (CollAlgo, error) {
	name := c.mpi.collForce[kind]
	if name == "" {
		name = defaultCollAlgo(kind, c.Size(), bytes)
	}
	return lookupCollAlgo(kind, name)
}

func init() {
	mustRegisterCollAlgo(CollBarrier, "dissemination", barrierDissemination)
	mustRegisterCollAlgo(CollBcast, "binomial", bcastBinomial)
	mustRegisterCollAlgo(CollBcast, "pipeline", bcastPipeline)
	mustRegisterCollAlgo(CollGather, "linear", gatherLinear)
	mustRegisterCollAlgo(CollScatter, "linear", scatterLinear)
	mustRegisterCollAlgo(CollAllgather, "ring", allgatherRing)
	mustRegisterCollAlgo(CollAllgather, "gather-bcast", allgatherGatherBcast)
	mustRegisterCollAlgo(CollAlltoall, "linear", alltoallLinear)
	mustRegisterCollAlgo(CollAlltoall, "pairwise", alltoallPairwise)
	mustRegisterCollAlgo(CollReduce, "binomial", reduceBinomial)
	mustRegisterCollAlgo(CollReduce, "pipeline", reducePipeline)
	mustRegisterCollAlgo(CollAllreduce, "tree", allreduceTree)
	mustRegisterCollAlgo(CollAllreduce, "ring", allreduceRing)
}
