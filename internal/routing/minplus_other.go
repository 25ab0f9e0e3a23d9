//go:build !amd64

package routing

// useAVX2 is always false off amd64: there is no assembly kernel, so
// minPlusRow runs the Go loop.
var useAVX2 = false

// minPlusRow sets dst[j] = min(dst[j], s+src[j]) for every j < len(dst);
// src must be at least as long as dst.
func minPlusRow(dst, src []float64, s float64) { minPlusRowGo(dst, src, s) }
