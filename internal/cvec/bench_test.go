package cvec

import (
	"fmt"
	"testing"
)

func BenchmarkTransposeBlockedVsNaive(b *testing.B) {
	// The blocked transpose is what makes the 6-step FFT's steps 1/4/6
	// bandwidth-bound instead of latency-bound; this quantifies it on the
	// host.
	for _, dim := range []int{64, 512, 2048} {
		src := seqVec(dim * dim)
		dst := make([]complex128, dim*dim)
		b.Run(fmt.Sprintf("blocked/%dx%d", dim, dim), func(b *testing.B) {
			b.SetBytes(int64(dim) * int64(dim) * 16 * 2)
			for i := 0; i < b.N; i++ {
				Transpose(dst, src, dim, dim)
			}
		})
		b.Run(fmt.Sprintf("naive/%dx%d", dim, dim), func(b *testing.B) {
			b.SetBytes(int64(dim) * int64(dim) * 16 * 2)
			for i := 0; i < b.N; i++ {
				TransposeNaive(dst, src, dim, dim)
			}
		})
	}
}

func BenchmarkPointwiseMul(b *testing.B) {
	const n = 1 << 16
	x, y := seqVec(n), seqVec(n)
	dst := make([]complex128, n)
	b.SetBytes(n * 16 * 3)
	for i := 0; i < b.N; i++ {
		PointwiseMul(dst, x, y)
	}
}
