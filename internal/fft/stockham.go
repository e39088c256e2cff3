package fft

import "math"

// The Stockham autosort kernel. Each stage transforms
//
//	y[q + s*(r*p + t)] = sum_u x[q + s*(p + m*u)] * W_r^{t*u} * W_{r*m}^{p*t}
//
// for p in [0,m), q in [0,s), t in [0,r), where s is the accumulated stride
// (product of the radices of earlier stages). The permutation is folded into
// the butterfly addressing, so no bit-reversal pass (and no extra memory
// sweep) is ever needed — the property that makes Stockham the standard
// choice for bandwidth-bound FFTs.
//
// The s == 1 case (the first stage, where inner vectors are single elements)
// is special-cased in each butterfly to keep the hot first pass free of the
// inner q loop overhead.

func stageRadix2(st *stage, y, x []complex128) {
	m, s := st.m, st.s
	if s == 1 {
		for p := 0; p < m; p++ {
			w := st.tw[p]
			a, b := x[p], x[p+m]
			y[2*p] = a + b
			y[2*p+1] = (a - b) * w
		}
		return
	}
	for p := 0; p < m; p++ {
		w := st.tw[p]
		x0 := x[s*p:]
		x1 := x[s*(p+m):]
		y0 := y[s*2*p:]
		y1 := y[s*(2*p+1):]
		for q := 0; q < s; q++ {
			a, b := x0[q], x1[q]
			y0[q] = a + b
			y1[q] = (a - b) * w
		}
	}
}

// mulByI returns i*z without a full complex multiply.
func mulByI(z complex128) complex128 { return complex(-imag(z), real(z)) }

func stageRadix4(st *stage, y, x []complex128) {
	m, s := st.m, st.s
	if s == 1 {
		for p := 0; p < m; p++ {
			w1 := st.tw[p*3]
			w2 := st.tw[p*3+1]
			w3 := st.tw[p*3+2]
			u0, u1, u2, u3 := x[p], x[p+m], x[p+2*m], x[p+3*m]
			a, c := u0+u2, u0-u2
			b, d := u1+u3, u1-u3
			id := mulByI(d)
			y[4*p] = a + b
			y[4*p+1] = (c - id) * w1
			y[4*p+2] = (a - b) * w2
			y[4*p+3] = (c + id) * w3
		}
		return
	}
	for p := 0; p < m; p++ {
		w1 := st.tw[p*3]
		w2 := st.tw[p*3+1]
		w3 := st.tw[p*3+2]
		x0 := x[s*p:]
		x1 := x[s*(p+m):]
		x2 := x[s*(p+2*m):]
		x3 := x[s*(p+3*m):]
		y0 := y[s*4*p:]
		y1 := y[s*(4*p+1):]
		y2 := y[s*(4*p+2):]
		y3 := y[s*(4*p+3):]
		for q := 0; q < s; q++ {
			u0, u1, u2, u3 := x0[q], x1[q], x2[q], x3[q]
			a, c := u0+u2, u0-u2
			b, d := u1+u3, u1-u3
			id := mulByI(d)
			y0[q] = a + b
			y1[q] = (c - id) * w1
			y2[q] = (a - b) * w2
			y3[q] = (c + id) * w3
		}
	}
}

// sin2pi3 = sin(2*pi/3), the radix-3 butterfly constant.
var sin2pi3 = math.Sin(2 * math.Pi / 3)

func stageRadix3(st *stage, y, x []complex128) {
	m, s := st.m, st.s
	for p := 0; p < m; p++ {
		w1 := st.tw[p*2]
		w2 := st.tw[p*2+1]
		x0 := x[s*p:]
		x1 := x[s*(p+m):]
		x2 := x[s*(p+2*m):]
		y0 := y[s*3*p:]
		y1 := y[s*(3*p+1):]
		y2 := y[s*(3*p+2):]
		for q := 0; q < s; q++ {
			u0, u1, u2 := x0[q], x1[q], x2[q]
			t1 := u1 + u2
			a := u0 - 0.5*t1
			b := complex(sin2pi3, 0) * (u1 - u2)
			ib := mulByI(b)
			y0[q] = u0 + t1
			y1[q] = (a - ib) * w1
			y2[q] = (a + ib) * w2
		}
	}
}

// stageRadix8 runs the radix-8 butterfly: an inline 8-point DFT (two
// radix-4 halves joined by the W8 constants, exactly the dft8 codelet) plus
// the stage twiddles. The higher radix cuts the number of Stockham passes
// over memory to log8(n), the paper's "radix 8 and 16, case by case".
func stageRadix8(st *stage, y, x []complex128) {
	m, s := st.m, st.s
	for p := 0; p < m; p++ {
		tw := st.tw[p*7 : p*7+7]
		x0 := x[s*p:]
		x1 := x[s*(p+m):]
		x2 := x[s*(p+2*m):]
		x3 := x[s*(p+3*m):]
		x4 := x[s*(p+4*m):]
		x5 := x[s*(p+5*m):]
		x6 := x[s*(p+6*m):]
		x7 := x[s*(p+7*m):]
		y0 := y[s*8*p:]
		y1 := y[s*(8*p+1):]
		y2 := y[s*(8*p+2):]
		y3 := y[s*(8*p+3):]
		y4 := y[s*(8*p+4):]
		y5 := y[s*(8*p+5):]
		y6 := y[s*(8*p+6):]
		y7 := y[s*(8*p+7):]
		for q := 0; q < s; q++ {
			u0, u1, u2, u3 := x0[q], x1[q], x2[q], x3[q]
			u4, u5, u6, u7 := x4[q], x5[q], x6[q], x7[q]
			a0, a1, a2, a3 := u0+u4, u1+u5, u2+u6, u3+u7
			b0 := u0 - u4
			b1 := u1 - u5
			b2 := u2 - u6
			b3 := u3 - u7
			b1 = complex(invSqrt2*(real(b1)+imag(b1)), invSqrt2*(imag(b1)-real(b1)))
			b2 = complex(imag(b2), -real(b2))
			b3 = complex(invSqrt2*(imag(b3)-real(b3)), -invSqrt2*(real(b3)+imag(b3)))
			{
				a, c := a0+a2, a0-a2
				b, d := a1+a3, a1-a3
				id := mulByI(d)
				y0[q] = a + b
				y2[q] = (c - id) * tw[1]
				y4[q] = (a - b) * tw[3]
				y6[q] = (c + id) * tw[5]
			}
			{
				a, c := b0+b2, b0-b2
				b, d := b1+b3, b1-b3
				id := mulByI(d)
				y1[q] = (a + b) * tw[0]
				y3[q] = (c - id) * tw[2]
				y5[q] = (a - b) * tw[4]
				y7[q] = (c + id) * tw[6]
			}
		}
	}
}

// stageGeneric handles any radix with an r-point matrix DFT per butterfly.
// It costs O(r^2) per butterfly, which is acceptable for the small primes
// (5, 7, 11, 13) it is used for; larger primes go through Bluestein.
func stageGeneric(st *stage, y, x []complex128) {
	// factorize routes primes above maxGenericRadix to Bluestein, so the
	// butterfly inputs fit a stack array (no allocation per pass) and the
	// min never binds; it only proves the reslice in bounds.
	var ubuf [maxGenericRadix]complex128
	u := ubuf[:min(uint(st.r), maxGenericRadix)]
	r, m, s := len(u), st.m, st.s
	for p := 0; p < m; p++ {
		twRow := st.tw[p*(r-1) : p*(r-1)+(r-1)]
		for q := 0; q < s; q++ {
			for t := 0; t < r; t++ {
				u[t] = x[q+s*(p+m*t)]
			}
			// t = 0: plain sum, no twiddle.
			acc := u[0]
			for t := 1; t < r; t++ {
				acc += u[t]
			}
			y[q+s*r*p] = acc
			for t := 1; t < r; t++ {
				wrRow := st.wr[t*r:]
				acc = u[0]
				for uu := 1; uu < r; uu++ {
					acc += u[uu] * wrRow[uu]
				}
				y[q+s*(r*p+t)] = acc * twRow[t-1]
			}
		}
	}
}
