package conv

import (
	"math/rand"
	"sync"
	"testing"

	"soifft/internal/cvec"
	"soifft/internal/ref"
	"soifft/internal/window"
)

// propParams draws a random valid window geometry. The generator walks the
// constraint chain of window.Validate directly: pick the oversampling ratio
// and a segment count large enough for it, then build N from an integral
// chunk count, then a width B >= DMu.
func propParams(rng *rand.Rand) window.Params {
	ratios := [][2]int{{8, 7}, {5, 4}, {3, 2}, {9, 8}, {7, 5}}
	r := ratios[rng.Intn(len(ratios))]
	nmu, dmu := r[0], r[1]
	var segs int
	for {
		segs = 3 + rng.Intn(8)
		if segs*dmu > 2*nmu-dmu { // Segments > 2*mu - 1
			break
		}
	}
	chunks := 2 + rng.Intn(5)
	return window.Params{
		N:        dmu * segs * segs * chunks,
		Segments: segs,
		NMu:      nmu,
		DMu:      dmu,
		B:        dmu + rng.Intn(32),
	}
}

// TestVariantsPropertyMatchBaseline pins Apply(Buffered) and
// Apply(Interchange) to Apply(Baseline) across randomized geometry
// (segments, mu, B), chunk sub-ranges, and worker counts. All three
// variants compute the same inner products, reordered only by the loop
// interchange and the input staging, so the tolerance covers rounding from
// that reordering, not algorithmic drift.
func TestVariantsPropertyMatchBaseline(t *testing.T) {
	iters := 40
	if testing.Short() {
		iters = 8
	}
	rng := rand.New(rand.NewSource(20260808))
	for it := 0; it < iters; it++ {
		p := propParams(rng)
		f, err := window.Design(p)
		if err != nil {
			t.Fatalf("iter %d: Design(%+v): %v", it, p, err)
		}
		C := f.Chunks()
		c0 := rng.Intn(C)
		c1 := c0 + 1 + rng.Intn(C-c0)
		workers := 1 + rng.Intn(5)

		x := ref.RandomVector(InputLen(f, c0, c1), int64(it)+1)
		want := make([]complex128, OutputLen(f, c0, c1))
		Apply(Baseline, f, want, x, c0, c1, workers)

		for _, v := range []Variant{Buffered, Interchange} {
			got := make([]complex128, OutputLen(f, c0, c1))
			Apply(v, f, got, x, c0, c1, workers)
			if e := cvec.RelErrL2(got, want); e > 1e-13 {
				t.Errorf("iter %d %+v range [%d,%d) workers=%d: %v differs from %v by %g",
					it, p, c0, c1, workers, v, Baseline, e)
			}
		}
	}
}

// TestSharedOutputRaceHammer drives the worker partitioning of every
// variant under the race detector: many concurrent Apply calls read the
// same input, two of them writing adjacent chunk ranges of one shared
// output slice (disjoint element ranges of the same backing array — exactly
// the aliasing pattern the distributed per-rank split produces). Each lane
// is computed by exactly one worker in a fixed order, so the results must
// equal the single-worker run bit for bit. The assertions double as a
// correctness check; the real teeth come from running the package tests
// with -race.
func TestSharedOutputRaceHammer(t *testing.T) {
	f := design(t, smallParams())
	C := f.Chunks()
	x := ref.RandomVector(InputLen(f, 0, C), 99)

	iters := 30
	if testing.Short() {
		iters = 5
	}
	k := C / 2
	loLen := OutputLen(f, 0, k)
	inOff := k * f.DMu * f.Segments
	for _, v := range AllVariants {
		want := make([]complex128, OutputLen(f, 0, C))
		Apply(v, f, want, x, 0, C, 1)
		for it := 0; it < iters; it++ {
			shared := make([]complex128, OutputLen(f, 0, C))
			whole := make([]complex128, OutputLen(f, 0, C))
			var wg sync.WaitGroup
			wg.Add(3)
			// Two writers split one output slice at the chunk boundary; a
			// third computes the whole range into its own buffer. All three
			// read x concurrently, each with internal worker parallelism.
			go func() {
				defer wg.Done()
				Apply(v, f, shared[:loLen], x, 0, k, 2)
			}()
			go func() {
				defer wg.Done()
				Apply(v, f, shared[loLen:], x[inOff:], k, C, 2)
			}()
			go func() {
				defer wg.Done()
				Apply(v, f, whole, x, 0, C, 3)
			}()
			wg.Wait()
			if e := cvec.RelErrL2(shared, want); e != 0 {
				t.Fatalf("%v iter %d: shared-output split differs from one worker by %g", v, it, e)
			}
			if e := cvec.RelErrL2(whole, want); e != 0 {
				t.Fatalf("%v iter %d: whole-range result differs from one worker by %g", v, it, e)
			}
		}
	}
}
