// Package aes is a from-scratch implementation of the FIPS-197 Advanced
// Encryption Standard, structured around the three hardware modules the
// paper partitions the cipher into (Sec 5.1.1):
//
//	Module 1: SubBytes / ShiftRows
//	Module 2: MixColumns
//	Module 3: KeyExpansion / AddRoundKey
//
// The package implements encryption only, which is all the paper's
// application runs. Besides a conventional single-call block cipher
// (Encrypt for key sizes 128, 192 and 256 bits), it exposes the individual
// module operations and a step-wise Pipeline so that et_sim can execute a
// real encryption distributed across mesh nodes exactly as the e-textile
// platform would, and verify the ciphertext against the reference
// implementation.
package aes

// The S-box is generated programmatically from its mathematical definition
// (multiplicative inverse in GF(2^8) followed by an affine transform) rather
// than transcribed, eliminating the risk of typos in a 256-entry table. The
// generated table is verified against FIPS-197 spot values in the tests.

var sbox [256]byte

func init() {
	initSbox()
}

// gmul multiplies two elements of GF(2^8) modulo the AES polynomial x^8 + x^4
// + x^3 + x + 1 (0x11b).
func gmul(a, b byte) byte {
	var p byte
	for i := 0; i < 8; i++ {
		if b&1 != 0 {
			p ^= a
		}
		hi := a & 0x80
		a <<= 1
		if hi != 0 {
			a ^= 0x1b
		}
		b >>= 1
	}
	return p
}

// ginv returns the multiplicative inverse of a in GF(2^8), with ginv(0) = 0
// as required by the S-box construction.
func ginv(a byte) byte {
	if a == 0 {
		return 0
	}
	// a^254 = a^-1 in GF(2^8): square-and-multiply over the fixed exponent.
	result := byte(1)
	base := a
	exp := 254
	for exp > 0 {
		if exp&1 == 1 {
			result = gmul(result, base)
		}
		base = gmul(base, base)
		exp >>= 1
	}
	return result
}

// affine applies the FIPS-197 affine transformation to b.
func affine(b byte) byte {
	return b ^ rotl8(b, 1) ^ rotl8(b, 2) ^ rotl8(b, 3) ^ rotl8(b, 4) ^ 0x63
}

func rotl8(b byte, n uint) byte { return b<<n | b>>(8-n) }

func initSbox() {
	for i := 0; i < 256; i++ {
		sbox[i] = affine(ginv(byte(i)))
	}
}
