//go:build !amd64

package buildtags

func kernel(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v
	}
	return s
}
