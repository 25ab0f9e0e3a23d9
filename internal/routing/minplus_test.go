package routing

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// hostAVX2 is the value useAVX2 had at package initialisation, before any test
// switched it.
var hostAVX2 = useAVX2

// kernelPaths lists the minPlusRow paths this host can run, as values of
// useAVX2: the Go loop always, the AVX2 kernel where the CPU has it.
func kernelPaths() []bool {
	if hostAVX2 {
		return []bool{false, true}
	}
	return []bool{false}
}

// kernelName names a minPlusRow path for subtests.
func kernelName(avx2 bool) string {
	if avx2 {
		return "avx2"
	}
	return "go"
}

// useKernel switches minPlusRow to one path until the test ends.
func useKernel(t testing.TB, avx2 bool) {
	useAVX2 = avx2
	t.Cleanup(func() { useAVX2 = hostAVX2 })
}

// checkMinPlusRow runs minPlusRow on copies of dst and src placed at an
// offset inside larger buffers, and holds the result to minPlusRowGo bit
// for bit. It also checks that neither input is written past len(dst) and
// that src is left as it was.
func checkMinPlusRow(t *testing.T, dst, src []float64, s float64, offset int) {
	t.Helper()
	const sentinel = -12345.678
	n := len(dst)
	buf := make([]float64, offset+n+8)
	srcBuf := make([]float64, offset+len(src)+8)
	for i := range buf {
		buf[i] = sentinel
	}
	for i := range srcBuf {
		srcBuf[i] = sentinel
	}
	copy(buf[offset:], dst)
	copy(srcBuf[offset:], src)

	want := append([]float64(nil), dst...)
	minPlusRowGo(want, src, s)
	minPlusRow(buf[offset:offset+n], srcBuf[offset:offset+len(src)], s)

	for j := range buf {
		got := buf[j]
		if j >= offset && j < offset+n {
			if math.Float64bits(got) != math.Float64bits(want[j-offset]) {
				t.Fatalf("len %d, s %v: dst[%d] = %v, want %v", n, s, j-offset, got, want[j-offset])
			}
		} else if got != sentinel {
			t.Fatalf("len %d: wrote %v outside dst at buffer index %d", n, got, j)
		}
	}
	for j := range srcBuf {
		if j >= offset && j < offset+len(src) {
			if math.Float64bits(srcBuf[j]) != math.Float64bits(src[j-offset]) {
				t.Fatalf("len %d: src[%d] changed to %v", n, j-offset, srcBuf[j])
			}
		} else if srcBuf[j] != sentinel {
			t.Fatalf("len %d: wrote %v outside src at buffer index %d", n, srcBuf[j], j)
		}
	}
}

// mixedCell draws a distance cell: Inf, +0 or a positive value spread over
// many binades, so that sums round and some overflow to Inf.
func mixedCell(rng *rand.Rand) float64 {
	switch r := rng.Intn(8); {
	case r == 0:
		return Inf
	case r == 1:
		return 0
	case r == 2:
		return math.Ldexp(1+rng.Float64(), rng.Intn(2100)-1070) // subnormal to near MaxFloat64
	default:
		return rng.Float64() * 100
	}
}

// TestMinPlusRowMatchesGo holds every minPlusRow path to the Go loop, bit
// for bit, at every length 0-70 (so the 8-lane loop, the 4-lane step and
// each scalar tail length run), at four start offsets, with rows mixing
// Inf, +0 and positive values and a src longer than dst.
func TestMinPlusRowMatchesGo(t *testing.T) {
	for _, avx2 := range kernelPaths() {
		t.Run(kernelName(avx2), func(t *testing.T) {
			useKernel(t, avx2)
			rng := rand.New(rand.NewSource(27))
			for n := 0; n <= 70; n++ {
				for round := 0; round < 8; round++ {
					dst := make([]float64, n)
					src := make([]float64, n+round%3)
					for j := range dst {
						dst[j] = mixedCell(rng)
					}
					for j := range src {
						src[j] = mixedCell(rng)
					}
					s := mixedCell(rng)
					checkMinPlusRow(t, dst, src, s, round%4)
				}
			}
		})
	}
}

// fuzzCell maps 8 fuzzer bytes to a cell ComputeFrom can hold: the sign is
// cleared and NaN becomes Inf, which leaves +0, subnormals, normals and
// Inf, the inputs on which VMINPD and the builtin min agree.
func fuzzCell(bits uint64) float64 {
	v := math.Abs(math.Float64frombits(bits))
	if math.IsNaN(v) {
		return Inf
	}
	return v
}

// FuzzMinPlusRow holds every minPlusRow path to the Go loop bit for bit.
// cells holds 16 bytes per column, a dst value then a src value, each read
// by fuzzCell; offset shifts the rows inside their buffers. The seed corpus
// is in testdata/fuzz/FuzzMinPlusRow.
func FuzzMinPlusRow(f *testing.F) {
	f.Fuzz(func(t *testing.T, sBits uint64, cells []byte, offset uint8) {
		n := len(cells) / 16
		dst, src := make([]float64, n), make([]float64, n)
		for j := 0; j < n; j++ {
			dst[j] = fuzzCell(binary.LittleEndian.Uint64(cells[16*j:]))
			src[j] = fuzzCell(binary.LittleEndian.Uint64(cells[16*j+8:]))
		}
		for _, avx2 := range kernelPaths() {
			useKernel(t, avx2)
			checkMinPlusRow(t, dst, src, fuzzCell(sBits), int(offset%4))
		}
	})
}
