package conv

// The buffered variant's inner products run through two small kernels.
// dot4 computes four output rows in one pass over the input window w:
//
//	dst[r] = sum over k = 0..len(w)-1 of t_r[k] * w[k],  r = 0..3
//
// with the taps staged k-major, tp[4k+r] = t_r[k], next to their rotated
// twins ts[4k+r] = complex(-imag(t_r[k]), real(t_r[k])). dot1 is the
// one-row form, tp[k] = t[k], for the rows left over when a chunk's row
// count is not a multiple of four. Splitting w[k] into [vr,vr] and [vi,vi]
// turns each complex multiply-add into
//
//	acc += tp[4k+r]*[vr,vr] + ts[4k+r]*[vi,vi]
//
// that is, two packed multiplies and two packed adds per row with no
// shuffle of the taps; dot_amd64.s does exactly that with SSE2. The sums
// round as the scalar loops of the other variants do: each row still sums
// k = 0..len(w)-1 in order, tr*vr + (-ti*vi) rounds like tr*vr - ti*vi,
// the imaginary part only swaps the operands of one addition, and SSE2 has
// no fused multiply-add. So Apply(Buffered) equals Apply(Interchange) bit
// for bit wherever the compiler does not fuse the latter's a*b+c.
//
// Callers guarantee len(tp), len(ts) >= 4*len(w) for dot4 and >= len(w)
// for dot1; the assembly does not check.

// dot4Go is the portable twin of dot4, in the same operation order. The
// explicit float64 conversions round each product before the add, so no
// compiler may fuse them into an FMA (the Go spec allows fusion only where
// no explicit conversion intervenes).
func dot4Go(dst *[4]complex128, tp, ts, w []complex128) {
	var re, im [4]float64
	tp = tp[:4*len(w)]
	ts = ts[:4*len(w)]
	for k, v := range w {
		vr, vi := real(v), imag(v)
		p := tp[4*k : 4*k+4]
		q := ts[4*k : 4*k+4]
		for r := range re {
			re[r] += float64(real(p[r])*vr) + float64(real(q[r])*vi)
			im[r] += float64(imag(p[r])*vr) + float64(imag(q[r])*vi)
		}
	}
	for r := range dst {
		dst[r] = complex(re[r], im[r])
	}
}

// dot1Go is the portable twin of dot1.
func dot1Go(dst *complex128, tp, ts, w []complex128) {
	var re, im float64
	tp = tp[:len(w)]
	ts = ts[:len(w)]
	for k, v := range w {
		vr, vi := real(v), imag(v)
		p, q := tp[k], ts[k]
		re += float64(real(p)*vr) + float64(real(q)*vi)
		im += float64(imag(p)*vr) + float64(imag(q)*vi)
	}
	*dst = complex(re, im)
}
