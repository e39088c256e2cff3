//go:build !amd64

package conv

func dot4(dst *[4]complex128, tp, ts, w []complex128) { dot4Go(dst, tp, ts, w) }

func dot1(dst *complex128, tp, ts, w []complex128) { dot1Go(dst, tp, ts, w) }
