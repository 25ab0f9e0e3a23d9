package routing

// minPlusRowGo is the min-plus row update of Floyd–Warshall's distance loop,
// dst[j] = min(dst[j], s+src[j]) for every j < len(dst), in plain Go. It is
// the oracle the assembly kernel is held to and the path every host without
// that kernel runs. src must be at least as long as dst.
func minPlusRowGo(dst, src []float64, s float64) {
	src = src[:len(dst)]
	for j, v := range src {
		dst[j] = min(dst[j], s+v)
	}
}
