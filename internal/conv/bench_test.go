package conv

import (
	"fmt"
	"testing"

	"soifft/internal/ref"
	"soifft/internal/window"
)

// BenchmarkVariants runs the Fig-11 ablation at mu=8/7 and S=8, 64, plus
// mu=5/4 at S=8, whose five rows per chunk are not a multiple of the
// buffered kernel's four.
func BenchmarkVariants(b *testing.B) {
	const chunks = 64
	geoms := []struct{ segs, nmu, dmu int }{{8, 8, 7}, {64, 8, 7}, {8, 5, 4}}
	for _, g := range geoms {
		segs := g.segs
		p := window.Params{N: segs * segs * g.dmu * chunks, Segments: segs, NMu: g.nmu, DMu: g.dmu, B: 72}
		f, err := window.Design(p)
		if err != nil {
			b.Fatal(err)
		}
		x := ref.RandomVector(InputLen(f, 0, chunks), 1)
		u := make([]complex128, OutputLen(f, 0, chunks))
		for _, v := range AllVariants {
			name := fmt.Sprintf("%s/segments=%d", v, segs)
			if g.nmu != 8 {
				name += fmt.Sprintf("/mu=%d:%d", g.nmu, g.dmu)
			}
			b.Run(name, func(b *testing.B) {
				b.SetBytes(int64(len(u)) * 16)
				for i := 0; i < b.N; i++ {
					Apply(v, f, u, x, 0, chunks, 1)
				}
				flops := 8 * float64(f.B) * float64(len(u))
				b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOPS")
			})
		}
	}
}

func BenchmarkParallelScaling(b *testing.B) {
	const chunks, segs = 64, 32
	p := window.Params{N: segs * segs * 7 * chunks, Segments: segs, NMu: 8, DMu: 7, B: 72}
	f, err := window.Design(p)
	if err != nil {
		b.Fatal(err)
	}
	x := ref.RandomVector(InputLen(f, 0, chunks), 1)
	u := make([]complex128, OutputLen(f, 0, chunks))
	for _, workers := range []int{1, 2, 4, 0} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				Apply(Buffered, f, u, x, 0, chunks, workers)
			}
		})
	}
}
