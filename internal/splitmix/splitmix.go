// Package splitmix is the SplitMix64 generator addressed by output index
// instead of advanced by successive calls: draw i of a seed's stream is a
// pure function of (seed, i), with no generator state and no ordering
// requirement. It is the one copy that the campaign seed stream and the
// runtime fault schedule both draw from, so a seed handed from one to the
// other behaves like any other stream consumer.
package splitmix

// golden is the SplitMix64 state increment (2^64 / φ, odd).
const golden = 0x9E3779B97F4A7C15

// Mix is the SplitMix64 output function: a bijective finalizer that turns
// the weakly distributed state counter into a well-mixed 64-bit value.
func Mix(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// Word returns draw i of seed's stream: output i+1 of the SplitMix64
// sequence whose state starts at seed.
func Word(seed, i uint64) uint64 { return Mix(seed + (i+1)*golden) }
