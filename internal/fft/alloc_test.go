package fft

import (
	"fmt"
	"testing"

	"soifft/internal/ref"
)

// TestSteadyStateZeroAllocs pins the hot transform entry points at zero
// heap allocations per call once their scratch pools are warm. It is the
// dynamic twin of escape_budget.json: the static gate counts escaping
// sites, this one counts what a call actually allocates.
func TestSteadyStateZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop Puts")
	}
	// Codelet sizes, pure powers of two (radix 8/4), smooth sizes whose
	// schedules include the generic radix-5, 7, 11 and 13 stages, and the
	// prime 1009, which runs Bluestein.
	planSizes := []int{1, 2, 8, 16, 1024, 3584, 14336, 1001, 1664, 2560, 1009}
	for _, n := range planSizes {
		p := MustPlan(n)
		src := ref.RandomVector(n, int64(n))
		dst := make([]complex128, n)
		for _, dir := range []Direction{Forward, Inverse} {
			name := fmt.Sprintf("Plan.Transform/n=%d/%s", n, dirName(dir))
			if a := testing.AllocsPerRun(20, func() { p.Transform(dst, src, dir) }); a != 0 {
				t.Errorf("%s: %v allocs per call, want 0", name, a)
			}
		}
	}
	laneCases := [][2]int{{64, 16}, {448, 8}, {1001, 4}, {256, 3}}
	for _, c := range laneCases {
		n, lanes := c[0], c[1]
		lb, err := NewLaneBatch(n, lanes)
		if err != nil {
			t.Fatalf("NewLaneBatch(%d,%d): %v", n, lanes, err)
		}
		x := ref.RandomVector(n*lanes, int64(n))
		for _, dir := range []Direction{Forward, Inverse} {
			name := fmt.Sprintf("LaneBatch.Transform/n=%d/lanes=%d/%s", n, lanes, dirName(dir))
			if a := testing.AllocsPerRun(20, func() { lb.Transform(x, dir) }); a != 0 {
				t.Errorf("%s: %v allocs per call, want 0", name, a)
			}
		}
	}
}
