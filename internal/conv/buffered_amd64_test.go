//go:build amd64 && !amd64.v3

package conv

import (
	"math/rand"
	"testing"

	"soifft/internal/ref"
	"soifft/internal/window"
)

// TestBufferedEqualsInterchange pins Apply(Buffered), which runs the SSE2
// kernels, to the scalar Apply(Interchange) by == (bit for bit, signed
// zeros included). The argument in dot.go makes them equal only where the
// compiler keeps Interchange's tr*vr - ti*vi as a separate multiply and
// subtract. The Go compiler fuses such a*b+c into an FMA on arm64, ppc64
// and s390x, and on amd64 from GOAMD64=v3 on, so the test builds only for
// amd64 below v3; elsewhere TestVariantsPropertyMatchBaseline still bounds
// the difference.
func TestBufferedEqualsInterchange(t *testing.T) {
	iters := 10
	if testing.Short() {
		iters = 3
	}
	rng := rand.New(rand.NewSource(20261019))
	for _, mu := range [][2]int{{8, 7}, {5, 4}} {
		nmu, dmu := mu[0], mu[1]
		// One geometry at the production width B=72 and one random.
		for _, b := range []int{72, dmu + rng.Intn(40)} {
			segs := 4 + rng.Intn(7)
			p := window.Params{N: dmu * segs * segs * (3 + rng.Intn(4)), Segments: segs, NMu: nmu, DMu: dmu, B: b}
			f := design(t, p)
			C := f.Chunks()
			for it := 0; it < iters; it++ {
				c0 := rng.Intn(C)
				c1 := c0 + 1 + rng.Intn(C-c0)
				workers := 1 + rng.Intn(5)
				x := ref.RandomVector(InputLen(f, c0, c1), int64(it)+1)
				want := make([]complex128, OutputLen(f, c0, c1))
				got := make([]complex128, OutputLen(f, c0, c1))
				Apply(Interchange, f, want, x, c0, c1, workers)
				Apply(Buffered, f, got, x, c0, c1, workers)
				for i := range want {
					if !sameBits(got[i], want[i]) {
						t.Fatalf("mu=%d/%d %+v range [%d,%d) workers=%d: output %d is %v, interchange %v",
							nmu, dmu, p, c0, c1, workers, i, got[i], want[i])
					}
				}
			}
		}
	}
}
