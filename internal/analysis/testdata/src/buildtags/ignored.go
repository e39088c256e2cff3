//go:build ignore

package buildtags

func kernel() {}
