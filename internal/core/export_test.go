package core

// TakeSelfCheck returns the engine self-check violations reported in the
// worlds the named test built and forgets them, for the external tests to
// report as their own.
var TakeSelfCheck = takeSelfCheck

// FlowState reports what e's gates keep of per-flow state, for the
// external tests: flow-table entries, wrappers held for resequencing, and
// one-shot numbers kept above the lane's floor.
func FlowState(e *Engine) (entries, held, once int) {
	for _, g := range e.gateOrder {
		entries += g.flows.n + len(g.flows.more)
		held += len(g.held)
		once += len(g.once.seen)
	}
	return entries, held, once
}
