package conv

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// sameBits reports whether a and b are equal bit for bit, which, unlike
// ==, tells -0 from +0.
func sameBits(a, b complex128) bool {
	return math.Float64bits(real(a)) == math.Float64bits(real(b)) &&
		math.Float64bits(imag(a)) == math.Float64bits(imag(b))
}

// kernelInputs fills v by kind: random of order one; all zeros; zeros of
// random sign; values near 1e150, whose products approach the top of the
// float64 range without overflowing; and values near 1e-160, whose
// products are subnormal or underflow to zero.
func kernelInputs(rng *rand.Rand, kind string, v []complex128) {
	for i := range v {
		re, im := 2*rng.Float64()-1, 2*rng.Float64()-1
		switch kind {
		case "zero":
			re, im = 0, 0
		case "signed-zero":
			re, im = math.Copysign(0, re), math.Copysign(0, im)
		case "huge":
			re, im = re*1e150, im*1e150
		case "tiny":
			re, im = re*1e-160, im*1e-160
		}
		v[i] = complex(re, im)
	}
}

// TestDotKernelsMatchGoTwin pins the kernels GOARCH selects (the SSE2
// assembly on amd64) to their portable twins bit for bit, over window
// lengths around the common B=72 and the empty window.
func TestDotKernelsMatchGoTwin(t *testing.T) {
	rng := rand.New(rand.NewSource(20261018))
	for _, n := range []int{0, 1, 2, 3, 71, 72, 73, 144} {
		for _, kind := range []string{"random", "zero", "signed-zero", "huge", "tiny"} {
			name := fmt.Sprintf("len=%d/%s", n, kind)
			w := make([]complex128, n)
			tp := make([]complex128, 4*n)
			ts := make([]complex128, 4*n)
			kernelInputs(rng, kind, w)
			kernelInputs(rng, kind, tp)
			kernelInputs(rng, kind, ts)

			garbage := complex(math.NaN(), 7)
			got4 := [4]complex128{garbage, garbage, garbage, garbage}
			var want4 [4]complex128
			dot4(&got4, tp, ts, w)
			dot4Go(&want4, tp, ts, w)
			for r := range got4 {
				if !sameBits(got4[r], want4[r]) {
					t.Errorf("dot4 %s row %d: got %v, twin %v", name, r, got4[r], want4[r])
				}
			}

			got1, want1 := garbage, complex128(0)
			dot1(&got1, tp, ts, w)
			dot1Go(&want1, tp, ts, w)
			if !sameBits(got1, want1) {
				t.Errorf("dot1 %s: got %v, twin %v", name, got1, want1)
			}
		}
	}
}
