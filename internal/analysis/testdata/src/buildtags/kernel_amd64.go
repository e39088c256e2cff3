package buildtags

// kernel is implemented in assembly on amd64 (the fixture has no .s file;
// the loader only type-checks).
func kernel(x []float64) float64
