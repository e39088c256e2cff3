package conv

// dot4 and dot1 are the SSE2 kernels described in dot.go. SSE2 is part of
// the amd64 baseline, so they need no CPU feature check.

//go:noescape
func dot4(dst *[4]complex128, tp, ts, w []complex128)

//go:noescape
func dot1(dst *complex128, tp, ts, w []complex128)
