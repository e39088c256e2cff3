// Package conv implements the convolution-and-oversampling step W*x of the
// SOI factorization (Section 5.3 of the paper), in the three variants whose
// ablation is Fig. 11:
//
//	Baseline     the straightforward row-wise form of Fig. 6a: for each
//	             chunk, all nmu*S rows are produced by length-B inner
//	             products; threads take chunks of rows. Its working set is
//	             the full nmu*S*B distinct matrix elements per chunk, which
//	             grows with the segment count.
//	Interchange  the decomposed form of Fig. 6b / Fig. 7: the matrix-vector
//	             product splits into S independent sub-problems (one per
//	             polyphase lane) because every S-by-S block of W is
//	             diagonal; loop_a over lanes becomes the outer, thread-
//	             parallel loop and the per-lane working set is a constant
//	             nmu*B elements regardless of scale.
//	Buffered     Interchange plus staging of the lane's stride-S input
//	             window through a contiguous circular buffer, converting B
//	             long-stride loads per inner product into B contiguous
//	             loads plus dmu strided loads per chunk ("Avoiding Cache
//	             Conflict Misses by Buffering"). Its inner products run
//	             in the packed-SSE2 kernels of dot.go on amd64.
//
// All variants produce bit-identical results up to floating-point
// reassociation; tests pin them against each other and against a direct
// dense evaluation of W.
package conv

import (
	"fmt"

	"soifft/internal/par"
	"soifft/internal/window"
)

// Variant selects the convolution implementation strategy.
type Variant int

const (
	Baseline Variant = iota
	Interchange
	Buffered
)

// String returns the label used in benchmark output, matching Fig. 11.
func (v Variant) String() string {
	switch v {
	case Baseline:
		return "baseline"
	case Interchange:
		return "interchange"
	case Buffered:
		return "buffering"
	default:
		return fmt.Sprintf("Variant(%d)", int(v))
	}
}

// AllVariants lists the ablation order of Fig. 11.
var AllVariants = []Variant{Baseline, Interchange, Buffered}

// InputLen returns the input span chunks [c0, c1) read: the last chunk
// starts at (c1-1)*DMu*S and reads B*S elements. The symbolic form below
// assumes a non-empty range c1 > c0 (the degenerate empty range returns 0).
//
//soilint:shape return == (c1 - 1 - c0) * f.DMu * f.Segments + f.B * f.Segments
func InputLen(f *window.Filter, c0, c1 int) int {
	if c1 <= c0 {
		return 0
	}
	return (c1-1-c0)*f.DMu*f.Segments + f.B*f.Segments
}

// OutputLen returns the number of outputs chunks [c0, c1) produce.
//
//soilint:shape return == (c1 - c0) * f.NMu * f.Segments
func OutputLen(f *window.Filter, c0, c1 int) int {
	return (c1 - c0) * f.NMu * f.Segments
}

// Apply computes the convolution outputs for chunks [c0, c1) of the global
// problem. x[0] must correspond to global input index c0*DMu*Segments and
// len(x) >= InputLen(f, c0, c1); u receives OutputLen(f, c0, c1) values,
// u[(c-c0)*NMu*S + a*S + j] being global output (c*NMu + a)*S + j.
// workers <= 0 selects GOMAXPROCS.
//
//soilint:shape len(x) >= (c1 - 1 - c0) * f.DMu * f.Segments + f.B * f.Segments
//soilint:shape len(u) >= (c1 - c0) * f.NMu * f.Segments
func Apply(v Variant, f *window.Filter, u, x []complex128, c0, c1, workers int) {
	if c1 <= c0 {
		return
	}
	if len(x) < InputLen(f, c0, c1) {
		panic(fmt.Sprintf("conv: input too short: len(x)=%d need %d", len(x), InputLen(f, c0, c1)))
	}
	if len(u) < OutputLen(f, c0, c1) {
		panic(fmt.Sprintf("conv: output too short: len(u)=%d need %d", len(u), OutputLen(f, c0, c1)))
	}
	switch v {
	case Baseline:
		applyBaseline(f, u, x, c0, c1, workers)
	case Interchange:
		applyInterchange(f, u, x, c0, c1, workers)
	case Buffered:
		applyBuffered(f, u, x, c0, c1, workers)
	default:
		panic(fmt.Sprintf("conv: unknown variant %d", int(v)))
	}
}

// applyBaseline walks output rows in order (Fig. 6a). Parallelization
// distributes chunks to workers; within a chunk, every row touches all
// nmu*S*B distinct taps.
func applyBaseline(f *window.Filter, u, x []complex128, c0, c1, workers int) {
	s := f.Segments
	nmu, dmu, b := f.NMu, f.DMu, f.B
	nchunks := c1 - c0
	par.For(workers, nchunks, func(lo, hi int) {
		for c := lo; c < hi; c++ {
			in := x[c*dmu*s:]
			out := u[c*nmu*s:]
			for a := 0; a < nmu; a++ {
				taps := f.Taps[a]
				for j := 0; j < s; j++ {
					var accRe, accIm float64
					for bb := 0; bb < b; bb++ {
						t := taps[bb*s+j]
						v := in[bb*s+j]
						tr, ti := real(t), imag(t)
						vr, vi := real(v), imag(v)
						accRe += tr*vr - ti*vi
						accIm += tr*vi + ti*vr
					}
					out[a*s+j] = complex(accRe, accIm)
				}
			}
		}
	})
}

// applyInterchange makes the lane loop outermost (Fig. 7: loop_a over the S
// sub-matrices, thread-parallel, no data shared between iterations).
func applyInterchange(f *window.Filter, u, x []complex128, c0, c1, workers int) {
	s := f.Segments
	nmu, dmu, b := f.NMu, f.DMu, f.B
	nchunks := c1 - c0
	par.For(workers, s, func(jlo, jhi int) {
		// Per-lane compact taps: laneTaps[a][bb] = Taps[a][bb*s+j]. This is
		// the constant nmu*B working set of the decomposed form.
		laneTaps := make([][]complex128, nmu) //soilint:ignore hotalloc per-worker scratch: one make per worker, amortized over the whole lane range
		for a := range laneTaps {
			laneTaps[a] = make([]complex128, b) //soilint:ignore hotalloc per-worker scratch: one make per worker, amortized over the whole lane range
		}
		for j := jlo; j < jhi; j++ {
			for a := 0; a < nmu; a++ {
				src := f.Taps[a]
				dst := laneTaps[a]
				// Ranging over dst (len b) makes the compacted store
				// check-free; only the strided gather keeps its check.
				for bb := range dst {
					dst[bb] = src[bb*s+j]
				}
			}
			for c := 0; c < nchunks; c++ {
				base := c * dmu * s
				for a := 0; a < nmu; a++ {
					var accRe, accIm float64
					// Ranging over the compact taps yields t without a
					// bounds check; the strided x load is the one access
					// the compiler cannot prove and stays budgeted.
					for bb, t := range laneTaps[a] {
						v := x[base+bb*s+j]
						tr, ti := real(t), imag(t)
						vr, vi := real(v), imag(v)
						accRe += tr*vr - ti*vi
						accIm += tr*vi + ti*vr
					}
					u[(c*nmu+a)*s+j] = complex(accRe, accIm)
				}
			}
		}
	})
}

// applyBuffered adds the circular input staging: lane j's window of B
// stride-S inputs lives in a contiguous ring; each chunk advances the ring
// by dmu elements copied from the strided input. The ring is 2B long and
// every element is written at both head and head+B, so the window is always
// the contiguous ring[head:head+B]. The inner products run through the
// kernels of dot.go: dot4 for each group of four output rows, dot1 for the
// nmu%4 rows left over (one pass of dot1 measured faster than a dot4 pass
// padded with zero rows at mu=5/4).
func applyBuffered(f *window.Filter, u, x []complex128, c0, c1, workers int) {
	s := f.Segments
	nmu, dmu, b := f.NMu, f.DMu, f.B
	nchunks := c1 - c0
	quads := nmu / 4
	par.For(workers, s, func(jlo, jhi int) {
		// The lane's taps in the kernels' layout: rows below 4*quads are
		// interleaved k-major in groups of four, tp[(a&^3)*b+4k+a&3], the
		// rest are contiguous, tp[a*b+k]; ts holds the rotated twins.
		tp := make([]complex128, nmu*b) //soilint:ignore hotalloc per-worker scratch: one make per worker, amortized over the whole lane range
		ts := make([]complex128, nmu*b) //soilint:ignore hotalloc per-worker scratch: one make per worker, amortized over the whole lane range
		ring := make([]complex128, 2*b) //soilint:ignore hotalloc per-worker ring buffer, allocated once per worker
		var acc [4]complex128
		for j := jlo; j < jhi; j++ {
			for a := 0; a < nmu; a++ {
				src := f.Taps[a]
				off, step := a*b, 1
				if a < 4*quads {
					off, step = (a&^3)*b+a&3, 4
				}
				for k := 0; k < b; k++ {
					t := src[k*s+j]
					tp[off+step*k] = t
					ts[off+step*k] = complex(-imag(t), real(t))
				}
			}
			// Fill the ring with the first chunk's window.
			for k := 0; k < b; k++ {
				v := x[k*s+j]
				ring[k] = v
				ring[k+b] = v
			}
			head := 0 // ring[head] is logical window element 0
			for c := 0; ; c++ {
				w := ring[head : head+b]
				out := u[c*nmu*s+j:]
				for a := 0; a < 4*quads; a += 4 {
					dot4(&acc, tp[a*b:], ts[a*b:], w)
					for r, v := range acc {
						out[(a+r)*s] = v
					}
				}
				for a := 4 * quads; a < nmu; a++ {
					dot1(&acc[0], tp[a*b:], ts[a*b:], w)
					out[a*s] = acc[0]
				}
				if c == nchunks-1 {
					break
				}
				// Advance the window by dmu: overwrite the dmu oldest
				// entries, both copies, with the next strided inputs.
				nextBase := (c+1)*dmu*s + (b-dmu)*s // first new element
				for d := 0; d < dmu; d++ {
					v := x[nextBase+d*s+j]
					ring[head] = v
					ring[head+b] = v
					head++
					if head == b {
						head = 0
					}
				}
			}
		}
	})
}

// ApplyDense multiplies the dense W matrix for chunks [c0, c1) against x —
// the O(everything) reference the fast variants are verified against in
// tests. Only usable for small problems.
func ApplyDense(f *window.Filter, u, x []complex128, c0, c1 int) {
	s := f.Segments
	nmu, dmu, b := f.NMu, f.DMu, f.B
	for c := 0; c < c1-c0; c++ {
		for a := 0; a < nmu; a++ {
			for j := 0; j < s; j++ {
				var acc complex128
				for bb := 0; bb < b; bb++ {
					acc += f.Taps[a][bb*s+j] * x[(c*dmu+bb)*s+j]
				}
				u[(c*nmu+a)*s+j] = acc
			}
		}
	}
}
