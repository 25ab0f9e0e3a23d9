package routing

// useAVX2 selects the AVX2 kernel in minPlusRow. It is set once, from the
// CPU's feature bits, when the package is initialised.
var useAVX2 = cpuHasAVX2()

// minPlusRow sets dst[j] = min(dst[j], s+src[j]) for every j < len(dst);
// src must be at least as long as dst. With AVX2 it runs minPlusRowAVX2,
// which is bit-identical to minPlusRowGo on every input without NaN or −0
// (the only cases where VMINPD and the builtin min disagree); otherwise it
// runs minPlusRowGo.
func minPlusRow(dst, src []float64, s float64) {
	if useAVX2 {
		minPlusRowAVX2(dst, src[:len(dst)], s)
		return
	}
	minPlusRowGo(dst, src, s)
}

// minPlusRowAVX2 is the AVX2 kernel (minplus_amd64.s): 8 lanes per
// iteration, then one 4-lane step and a scalar tail, all VEX-encoded. It
// reads len(dst) elements of src.
//
//go:noescape
func minPlusRowAVX2(dst, src []float64, s float64)

// cpuid executes CPUID with the given leaf (EAX) and subleaf (ECX).
func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads the XCR0 register; only call it when CPUID reports OSXSAVE.
func xgetbv() (eax, edx uint32)

// cpuHasAVX2 reports whether the CPU implements AVX2 and the operating
// system saves the YMM registers across context switches.
func cpuHasAVX2() bool {
	if maxLeaf, _, _, _ := cpuid(0, 0); maxLeaf < 7 {
		return false
	}
	const osxsave, avx = 1 << 27, 1 << 28
	if _, _, ecx, _ := cpuid(1, 0); ecx&osxsave == 0 || ecx&avx == 0 {
		return false
	}
	// XCR0 bit 1 is the XMM state, bit 2 the upper YMM halves.
	if xcr0, _ := xgetbv(); xcr0&6 != 6 {
		return false
	}
	const avx2 = 1 << 5
	_, ebx, _, _ := cpuid(7, 0)
	return ebx&avx2 != 0
}
