package main

import "math"

// The exact route of serve_small is fft.Plan itself, so fft.Plan cannot be
// its reference: the server's output is often bit-identical to it. The
// reference there is a direct DFT in double-double arithmetic with
// double-double twiddles, whose own error (~u²) is far below a float64
// FFT's.

// dd is an unevaluated sum hi+lo of two float64s (double-double).
type dd struct{ hi, lo float64 }

func twoSum(a, b float64) (s, e float64) {
	s = a + b
	bb := s - a
	return s, (a - (s - bb)) + (b - bb)
}

func (x dd) add(y dd) dd {
	s, e := twoSum(x.hi, y.hi)
	e += x.lo + y.lo
	hi := s + e
	return dd{hi, e - (hi - s)}
}

func (x dd) mul(y dd) dd {
	p := x.hi * y.hi
	e := math.FMA(x.hi, y.hi, -p) + x.hi*y.lo + x.lo*y.hi
	hi := p + e
	return dd{hi, e - (hi - p)}
}

func (x dd) divF(f float64) dd {
	q := x.hi / f
	p := q * f
	r := (x.hi - p - math.FMA(q, f, -p)) + x.lo
	q2 := r / f
	hi := q + q2
	return dd{hi, q2 - (hi - q)}
}

// sinCos returns sin and cos of theta by their Taylor series in
// double-double; |theta| <= pi/4.
func sinCos(theta dd) (s, c dd) {
	t2 := theta.mul(theta)
	s, c = theta, dd{1, 0}
	st, ct := theta, dd{1, 0}
	for m := 1; m < 30; m++ {
		st = st.mul(t2).divF(-float64(2*m) * float64(2*m+1))
		ct = ct.mul(t2).divF(-float64(2*m-1) * float64(2*m))
		s, c = s.add(st), c.add(ct)
	}
	return s, c
}

// twiddles returns cos and sin of 2*pi*k/n for k in [0, n), n a multiple of
// 8, evaluated on the first octant and unfolded by exact symmetries.
func twiddles(n int) (cs, sn []dd) {
	twoPi := dd{6.283185307179586, 2.4492935982947064e-16}
	cs, sn = make([]dd, n), make([]dd, n)
	neg := func(x dd) dd { return dd{-x.hi, -x.lo} }
	for k := 0; k <= n/8; k++ {
		sn[k], cs[k] = sinCos(twoPi.mul(dd{float64(k), 0}).divF(float64(n)))
	}
	for k := n/8 + 1; k <= n/4; k++ {
		cs[k], sn[k] = sn[n/4-k], cs[n/4-k]
	}
	for k := n/4 + 1; k <= n/2; k++ {
		cs[k], sn[k] = neg(cs[n/2-k]), sn[n/2-k]
	}
	for k := n/2 + 1; k < n; k++ {
		cs[k], sn[k] = cs[n-k], neg(sn[n-k])
	}
	return cs, sn
}

// exactDFT writes the forward DFT of x (length a multiple of 8) into y,
// accumulated in double-double and rounded once.
func exactDFT(y, x []complex128, cs, sn []dd) {
	n := len(x)
	for k := range y[:n] {
		var re, im dd
		for j, v := range x {
			t := j * k % n
			xr, xi := dd{real(v), 0}, dd{imag(v), 0}
			// (xr + i xi)(c - i s) = xr c + xi s + i (xi c - xr s)
			re = re.add(xr.mul(cs[t])).add(xi.mul(sn[t]))
			im = im.add(xi.mul(cs[t])).add(dd{-real(v), 0}.mul(sn[t]))
		}
		y[k] = complex(re.hi+re.lo, im.hi+im.lo)
	}
}
