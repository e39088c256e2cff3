// Package fft is a from-scratch, stdlib-only FFT library for
// double-precision complex data. It provides:
//
//   - Plan: a reusable, goroutine-safe transform plan for any length n,
//     using a mixed-radix Stockham autosort kernel for smooth sizes
//     (radices 2,3,4,5,7,11,13) and Bluestein's chirp-z algorithm
//     otherwise;
//   - Batch: many independent transforms of the same length, optionally
//     strided, optionally executed by a worker pool (the paper's
//     "I_m (x) F_p is naturally parallel");
//   - SixStep*: the large-1D-FFT variants of Section 5.2 of the paper
//     (Bailey's 6-step algorithm, naive and bandwidth-optimized, with
//     pipelined and fine-grain-parallel flavors used for the Fig. 10
//     ablation), including a variant with a fused demodulation pass.
//
// Forward transforms are unnormalized; Inverse applies the 1/n factor, so
// Inverse(Forward(x)) == x.
package fft

import (
	"fmt"
	"sync"
)

// maxGenericRadix is the largest prime factor handled by the mixed-radix
// kernel; anything larger routes the whole transform through Bluestein.
const maxGenericRadix = 13

// Plan holds precomputed twiddle factors and dispatch information for
// transforms of one fixed length. A Plan is safe for concurrent use; each
// call draws scratch space from an internal pool.
type Plan struct {
	n      int
	stages []stage    // mixed-radix schedule (nil when blue != nil or n <= 2)
	blue   *bluestein // chirp-z fallback for rough sizes
	work   sync.Pool
}

// stage describes one Stockham pass: the current sub-transform length is
// r*m, processed at stride s, with twiddle table tw[p*(r-1)+(t-1)] =
// exp(-2*pi*i*p*t/(r*m)) and, for generic radices, the r x r DFT matrix wr.
type stage struct {
	r, m, s int
	tw      []complex128
	wr      []complex128 // wr[t*r+u] = exp(-2*pi*i*t*u/r); nil for r=2,3,4,8
}

// NewPlan creates a transform plan for length n (n >= 1).
//
//soilint:shape return.n == n
func NewPlan(n int) (*Plan, error) {
	if n < 1 {
		return nil, fmt.Errorf("fft: invalid transform length %d", n)
	}
	p := &Plan{n: n}
	p.work.New = func() any {
		b := make([]complex128, n)
		return &b
	}
	if n <= 2 {
		return p, nil
	}
	radices, smooth := factorize(n, 1)
	if !smooth {
		b, err := newBluestein(n)
		if err != nil {
			return nil, err
		}
		p.blue = b
		return p, nil
	}
	p.stages = buildStages(n, radices)
	return p, nil
}

// MustPlan is NewPlan that panics on error, for tests and internal use with
// lengths known to be valid.
func MustPlan(n int) *Plan {
	p, err := NewPlan(n)
	if err != nil {
		panic(err)
	}
	return p
}

// N returns the transform length.
//
//soilint:shape return == n
func (p *Plan) N() int { return p.n }

// aliasingStride8 reports whether a radix-8 butterfly whose write legs are
// separated by s complex elements maps all eight of them onto one L1 set
// group: 256 complex128 elements = 4096 bytes, one page.
func aliasingStride8(s int) bool { return s%256 == 0 }

// factorize splits n into the radix schedule used by the Stockham kernel.
// Powers of two are emitted as radix-8 passes with a radix-4/2 remainder:
// the specialized high-radix butterflies cut the number of passes over
// memory to ~log8(n) — the same motivation as the paper's radix-8/16
// register blocking (Section 5.2.4).
//
// strideMul is the stride the first stage starts at (1 for a Plan, `lanes`
// for a LaneBatch) and gates the radix-8 emission: once the accumulated
// stride lands on the 4 KiB-aliasing lattice (aliasingStride8), the
// remaining power-of-two factors come out as radix-4 passes. An aliasing
// radix-8 stage needs 16 L1 ways per set (8 write legs on top of the 8
// aliasing read legs every power-of-two length has) against 8-way hardware
// and thrashes at every working-set size; a radix-4 stage needs exactly 8
// ways and stays at streaming bandwidth, so two radix-4 passes beat one
// thrashing radix-8 pass.
//
// Returns smooth=false when n has a prime factor > maxGenericRadix.
func factorize(n, strideMul int) (radices []int, smooth bool) {
	e2 := 0
	for n%2 == 0 {
		e2++
		n /= 2
	}
	s := strideMul
	for e2 >= 3 && !aliasingStride8(s) {
		radices = append(radices, 8) //soilint:ignore hotalloc plan-time factorization, O(log n) appends
		s *= 8
		e2 -= 3
	}
	for ; e2 >= 2; e2 -= 2 {
		radices = append(radices, 4) //soilint:ignore hotalloc plan-time factorization, O(log n) appends
	}
	if e2 == 1 {
		radices = append(radices, 2)
	}
	for _, r := range []int{3, 5, 7, 11, 13} {
		for n%r == 0 {
			radices = append(radices, r) //soilint:ignore hotalloc plan-time factorization, O(log n) appends
			n /= r
		}
	}
	return radices, n == 1
}

// buildStages precomputes the per-stage twiddle tables for the forward
// direction. The inverse direction reuses them via the conjugation identity
// IFFT(x) = conj(FFT(conj(x)))/n.
func buildStages(n int, radices []int) []stage {
	stages := make([]stage, 0, len(radices))
	cur := n
	s := 1
	for _, r := range radices {
		m := cur / r
		st := stage{r: r, m: m, s: s}
		st.tw = make([]complex128, m*(r-1))
		for pi := 0; pi < m; pi++ {
			for t := 1; t < r; t++ {
				st.tw[pi*(r-1)+(t-1)] = twiddle(Forward, pi*t, cur)
			}
		}
		if r != 2 && r != 3 && r != 4 && r != 8 {
			st.wr = make([]complex128, r*r)
			for t := 0; t < r; t++ {
				for u := 0; u < r; u++ {
					st.wr[t*r+u] = twiddle(Forward, t*u, r)
				}
			}
		}
		stages = append(stages, st)
		cur = m
		s *= r
	}
	return stages
}

// Transform computes the DFT of src into dst. dst and src must both have
// length >= p.N(); dst may alias src (in-place). Forward is unnormalized;
// Inverse applies the 1/n scaling.
//
//soilint:shape len(dst) >= n
//soilint:shape len(src) >= n
func (p *Plan) Transform(dst, src []complex128, dir Direction) {
	n := p.n
	if len(dst) < n || len(src) < n {
		panic(fmt.Sprintf("fft: Transform buffers too short: len(dst)=%d len(src)=%d n=%d", len(dst), len(src), n))
	}
	dst, src = dst[:n], src[:n]
	switch {
	case n == 1:
		dst[0] = src[0]
	case n == 2:
		a, b := src[0], src[1]
		dst[0], dst[1] = a+b, a-b
		if dir == Inverse {
			dst[0] *= 0.5
			dst[1] *= 0.5
		}
	case n <= 16 && (n == 4 || n == 8 || n == 16):
		// Fully unrolled codelets for the hot tiny sizes (the F_P stage of
		// the SOI factorization runs these by the millions).
		if dir == Forward {
			codeletForward(dst, src, n)
			return
		}
		var tmp [16]complex128
		for i := 0; i < n; i++ {
			v := src[i]
			tmp[i] = complex(real(v), -imag(v))
		}
		codeletForward(dst, tmp[:n], n)
		inv := 1 / float64(n)
		for i := 0; i < n; i++ {
			dst[i] = complex(real(dst[i])*inv, -imag(dst[i])*inv)
		}
	case p.blue != nil:
		p.blue.transform(dst, src, dir)
	default:
		p.stockham(dst, src, dir)
	}
}

// Forward computes the unnormalized forward DFT of src into dst.
//
//soilint:shape len(dst) >= n
//soilint:shape len(src) >= n
func (p *Plan) Forward(dst, src []complex128) { p.Transform(dst, src, Forward) }

// Inverse computes the normalized (1/n) inverse DFT of src into dst.
//
//soilint:shape len(dst) >= n
//soilint:shape len(src) >= n
func (p *Plan) Inverse(dst, src []complex128) { p.Transform(dst, src, Inverse) }

// stockham runs the mixed-radix autosort pipeline. The two ping-pong buffers
// are dst and a pooled scratch vector; the parity of the stage count decides
// which buffer the pipeline starts in so that the last pass always lands in
// dst, with no final copy (one fewer memory sweep — the kind of accounting
// Section 5.2 of the paper is about).
func (p *Plan) stockham(dst, src []complex128, dir Direction) {
	wp := p.work.Get().(*[]complex128)
	defer p.work.Put(wp)
	w := *wp

	a, b := dst, w
	if len(p.stages)%2 != 0 {
		a, b = w, dst
	}
	if dir == Forward {
		copy(a, src)
	} else {
		for i, v := range src {
			a[i] = complex(real(v), -imag(v))
		}
	}
	for i := range p.stages {
		runStage(&p.stages[i], b, a)
		a, b = b, a
	}
	// Result is now in dst (== a after the final swap).
	if dir == Inverse {
		inv := 1 / float64(p.n)
		for i, v := range dst {
			dst[i] = complex(real(v)*inv, -imag(v)*inv)
		}
	}
}

// runStage executes one Stockham pass: y <- butterfly(x).
func runStage(st *stage, y, x []complex128) {
	switch st.r {
	case 2:
		stageRadix2(st, y, x)
	case 3:
		stageRadix3(st, y, x)
	case 4:
		stageRadix4(st, y, x)
	case 8:
		stageRadix8(st, y, x)
	default:
		stageGeneric(st, y, x)
	}
}
