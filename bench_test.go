package nmad_test

import (
	"testing"

	"nmad/internal/bench"
)

// BenchmarkFigure regenerates each figure of the bench registry (the
// paper's §5 figures, the ablations and the scale workloads) once per
// iteration. ns/op is the host cost of simulating the whole figure; the
// virtual-time results themselves are the goldens under
// internal/bench/testdata/figures. Profile one figure with
//
//	go test -run=NONE -bench 'BenchmarkFigure/2a$' -cpuprofile cpu.out .
func BenchmarkFigure(b *testing.B) {
	for _, info := range bench.Figures() {
		b.Run(info.ID, func(b *testing.B) {
			for b.Loop() {
				if _, err := bench.Run(info.ID); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
