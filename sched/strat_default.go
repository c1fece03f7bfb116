package sched

// defaultStrategy is the no-optimization reference: strict FIFO, one
// wrapper per physical packet, no aggregation, no reordering. It is the
// ablation baseline showing what the engine costs without its window —
// roughly how the synchronous libraries of the paper's §2 behave.
type defaultStrategy struct{ *accumulator }

func (defaultStrategy) Name() string { return "default" }

func (s defaultStrategy) Elect(w Window, rail RailInfo) *Election {
	s.el.Reset()
	s.maxSegs = rail.Caps.MaxSegments
	w.Scan(s.first) // the first wrapper this rail can gather, alone
	if s.el.Empty() {
		return nil
	}
	return &s.el
}
